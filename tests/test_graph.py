import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcsim
from pcsim import graph
from pcsim.errors import (
    DimensionMismatch,
    NegativeWeight,
    NoConvergence,
    NotStronglyConnected,
    RowSumExceeded,
)

from conftest import random_network, two_agent_doubly_stochastic


class TestBuildNetwork:
    def test_matrix_layout(self):
        # link (s, t, kappa) means s sends to t, which applies gain kappa
        net = pcsim.build_network(3, [(1, 2, 0.4), (2, 3, 0.25), (3, 1, 0.6)])
        L = net.matrix
        assert L[1, 0] == 0.4
        assert L[2, 1] == 0.25
        assert L[0, 2] == 0.6
        assert L[0, 0] == pytest.approx(0.4)
        assert L[1, 1] == pytest.approx(0.6)
        np.testing.assert_allclose(L.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    def test_row_stochastic_on_random_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            net = random_network(rng)
            assert np.max(np.abs(net.matrix.sum(axis=1) - 1.0)) <= 1e-14

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeight):
            pcsim.build_network(2, [(1, 2, -0.1), (2, 1, 0.5)])

    def test_nan_weight_rejected(self):
        # kappa < 0 is False for NaN, which would leave a NaN row in L
        with pytest.raises(NegativeWeight):
            pcsim.build_network(2, [(1, 2, np.nan), (2, 1, 0.5)])
        with pytest.raises(RowSumExceeded):
            pcsim.build_network(2, [(1, 2, np.inf), (2, 1, 0.5)])

    def test_zero_gain_rejected(self):
        # a zero gain is no link: this 3-cycle's L is the chain 1 -> 2 -> 3,
        # whose defective |lambda_2| = 0.5 the spectral analysis would report
        with pytest.raises(NegativeWeight, match="must be > 0"):
            pcsim.build_network(3, [(1, 2, 0.5), (2, 3, 0.5), (3, 1, 0.0)])

    def test_row_sum_above_one_rejected(self):
        with pytest.raises(RowSumExceeded):
            pcsim.build_network(3, [(1, 2, 0.7), (3, 2, 0.5), (2, 1, 0.3), (2, 3, 0.3)])

    def test_row_sum_exactly_one_allowed(self):
        net = pcsim.build_network(2, [(1, 2, 1.0), (2, 1, 1.0)])
        assert net.matrix[0, 0] == 0.0

    def test_disconnected_rejected(self):
        with pytest.raises(NotStronglyConnected):
            pcsim.build_network(3, [(1, 2, 0.5), (2, 1, 0.5)])

    def test_one_way_chain_rejected(self):
        with pytest.raises(NotStronglyConnected):
            pcsim.build_network(3, [(1, 2, 0.5), (2, 3, 0.5)])

    def test_agent_ids_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            pcsim.build_network(2, [(1, 3, 0.5)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            pcsim.build_network(2, [(1, 1, 0.2), (1, 2, 0.5), (2, 1, 0.5)])

    def test_link_count(self):
        rng = np.random.default_rng(3)
        net = random_network(rng, 12)
        L = net.matrix
        assert net.link_count == len(net.edge_src) == len(net.edge_dst) == len(net.edge_gain)
        assert net.link_count == np.count_nonzero(L - np.diag(np.diag(L)))

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_link_order_does_not_matter(self, seed, data):
        # the arrays, and so L and every step's accumulation order, are
        # sorted by (receiver, sender) whatever order the links come in
        net = random_network(np.random.default_rng(seed))
        links = [(s + 1, t + 1, g) for s, t, g in
                 zip(net.edge_src.tolist(), net.edge_dst.tolist(), net.edge_gain.tolist())]
        rebuilt = pcsim.build_network(net.n, data.draw(st.permutations(links)))
        for name in ("edge_src", "edge_dst", "edge_gain", "matrix"):
            a, b = getattr(net, name), getattr(rebuilt, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_matrix_keeps_the_dense_row_sums(self):
        # the self gain is 1 minus the sum over the dense row; a sum in
        # link order (np.bincount) differs in the last bit on many draws
        rng = np.random.default_rng(4)
        for _ in range(20):
            net = random_network(rng)
            ref = np.zeros((net.n, net.n))
            for s, t, g in zip(net.edge_src, net.edge_dst, net.edge_gain):
                ref[t, s] = g
            np.fill_diagonal(ref, 1.0 - ref.sum(axis=1))
            assert net.matrix.tobytes() == ref.tobytes()


# name: (n, senders, receivers, gains, the error); each breaks what build_network guarantees
UNCHECKED_NETWORKS = {
    "nan-gain": (2, [1, 0], [0, 1], [np.nan, 0.5], ValueError),
    "inf-gain": (2, [1, 0], [0, 1], [np.inf, 0.5], ValueError),
    "zero-gain": (2, [1, 0], [0, 1], [0.0, 0.5], ValueError),
    "negative-gain": (2, [1, 0], [0, 1], [-0.5, 0.5], ValueError),
    "text-gain": (2, [1, 0], [0, 1], ["0.5", "0.5"], ValueError),
    "negative-index": (2, [-1, 0], [0, 1], [0.5, 0.5], DimensionMismatch),
    "index-past-n": (2, [2, 0], [0, 1], [0.5, 0.5], DimensionMismatch),
    "float-agents": (2, [1.0, 0.0], [0, 1], [0.5, 0.5], DimensionMismatch),
    "lengths-differ": (2, [1, 0], [0, 1], [0.5], DimensionMismatch),
    "2-d-arrays": (2, [[1, 0]], [[0, 1]], [[0.5, 0.5]], DimensionMismatch),
    "one-agent": (1, [0], [0], [0.5], ValueError),
    "fractional-n": (2.5, [1, 0], [0, 1], [0.5, 0.5], ValueError),
}


class TestConsensusNetwork:
    """A record built without build_network is checked at construction."""

    @pytest.mark.parametrize("case", UNCHECKED_NETWORKS)
    def test_refuses_what_build_network_refuses(self, case):
        n, src, dst, gain, error = UNCHECKED_NETWORKS[case]
        with pytest.raises(error):
            pcsim.ConsensusNetwork(n=n, edge_src=np.array(src), edge_dst=np.array(dst),
                                   edge_gain=np.array(gain))

    def test_keeps_read_only_copies(self):
        src, dst, gain = np.array([1, 0]), np.array([0, 1]), np.array([1e300, 0.5])
        net = pcsim.ConsensusNetwork(n=2, edge_src=src, edge_dst=dst, edge_gain=gain)
        src[0] = -1  # the caller's array stays its own and writable
        assert net.edge_src.tolist() == [1, 0] and net.edge_gain.tolist() == [1e300, 0.5]
        for array in (net.edge_src, net.edge_dst, net.edge_gain):
            with pytest.raises(ValueError):
                array[0] = 0

    @pytest.mark.parametrize("gain", ["1e400", "1e-400"])
    def test_checks_gains_as_the_loops_read_them(self, gain):
        # where longdouble is wider than float64, these round to inf and 0
        with pytest.raises(ValueError):
            pcsim.ConsensusNetwork(n=2, edge_src=np.array([1, 0]), edge_dst=np.array([0, 1]),
                                   edge_gain=np.array([np.longdouble(gain), 0.5]))


class TestRingLattice:
    def test_uniform_ring_is_circulant(self, ring25):
        L = ring25.matrix
        assert np.all(np.diag(L) == 0.5)
        for i in range(25):
            assert L[i, (i - 1) % 25] == 0.5

    def test_uniform_ring_lambda2_closed_form(self, spectral25):
        # circulant eigenvalues 1/2 + exp(2*pi*i*m/25)/2 give cos(pi/25)
        assert spectral25.lambda2_mag == pytest.approx(np.cos(np.pi / 25), abs=1e-12)

    def test_step_must_be_coprime_with_n(self):
        with pytest.raises(NotStronglyConnected):
            pcsim.ring_lattice(6, 2)
        with pytest.raises(NotStronglyConnected):
            pcsim.ring_lattice(6, 3)
        pcsim.ring_lattice(6, 5)  # coprime, fine

    def test_step_two_ring_wiring(self):
        net = pcsim.ring_lattice(5, 2, "uniform")
        # each agent hears the agent two positions back
        senders = {int(t) + 1: int(s) + 1 for s, t in zip(net.edge_src, net.edge_dst)}
        assert senders == {1: 4, 2: 5, 3: 1, 4: 2, 5: 3}

    def test_random_weights_reproducible(self):
        a = pcsim.ring_lattice(9, 1, "random", seed=5)
        b = pcsim.ring_lattice(9, 1, "random", seed=5)
        c = pcsim.ring_lattice(9, 1, "random", seed=6)
        assert np.array_equal(a.matrix, b.matrix)
        assert not np.array_equal(a.matrix, c.matrix)
        assert np.all((a.edge_gain > 0.2) & (a.edge_gain < 1.0))

    def test_explicit_weight_sequence(self):
        net = pcsim.ring_lattice(4, 1, [0.3, 0.4, 0.5, 0.6])
        assert net.matrix[0, 3] == 0.3
        assert net.matrix[3, 2] == 0.6

    def test_too_small(self):
        with pytest.raises(ValueError):
            pcsim.ring_lattice(2, 1)


class TestSpectralAnalysis:
    def test_two_agent_doubly_stochastic(self):
        sp = pcsim.spectral_analysis(two_agent_doubly_stochastic())
        np.testing.assert_allclose(sp.w_left, [0.5, 0.5], atol=1e-12)
        assert sp.lambda2_mag == pytest.approx(0.0, abs=1e-12)

    def test_doubly_stochastic_ring_gives_uniform_w(self, spectral25):
        np.testing.assert_allclose(spectral25.w_left, 0.04, atol=1e-10)

    def test_left_eigenvector_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            net = random_network(rng)
            sp = pcsim.spectral_analysis(net)
            resid = np.max(np.abs(sp.w_left @ net.matrix - sp.w_left))
            assert resid <= 1e-9
            assert sp.w_left.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(sp.w_left > 0)

    def test_conservation_under_matrix_powers(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            net = random_network(rng)
            sp = pcsim.spectral_analysis(net)
            x = rng.uniform(-10, 10, net.n)
            target = sp.w_left @ x
            L = net.matrix
            y = x.copy()
            for _ in range(200):
                y = L @ y
                assert abs(sp.w_left @ y - target) <= 1e-9 * np.linalg.norm(x)

    def test_lambda2_matches_dense_eigensolver(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            net = random_network(rng)
            sp = pcsim.spectral_analysis(net)
            mags = np.sort(np.abs(np.linalg.eigvals(net.matrix)))
            assert sp.lambda2_mag == pytest.approx(mags[-2], abs=1e-8)

    def test_stalled_iteration_falls_back_to_a_solve(self, monkeypatch):
        # w_left solves w L = w, w 1 = 1 once the power iteration stalls
        monkeypatch.setattr(graph, "_MAX_ITERS", 20)
        net = pcsim.build_network(3, [(1, 2, 0.01), (2, 3, 0.02), (3, 1, 0.003), (1, 3, 0.004)])
        sp = pcsim.spectral_analysis(net)
        assert sp.residuals["iterations"] == 20
        np.testing.assert_allclose(sp.w_left @ net.matrix, sp.w_left, rtol=0, atol=1e-15)
        assert sp.w_left.sum() == pytest.approx(1.0, abs=1e-15) and np.all(sp.w_left > 0)
        mags = np.sort(np.abs(np.linalg.eigvals(net.matrix)))
        assert sp.lambda2_mag == pytest.approx(mags[-2], abs=1e-12)

    def test_periodic_matrix_with_uneven_w_names_lambda2(self):
        # period 2 and w_left = (1/2, 1/4, 1/4): the power iteration oscillates
        # from the uniform start, so only the solve reaches |lambda_2| = 1
        net = pcsim.build_network(3, [(2, 1, 0.5), (3, 1, 0.5), (1, 2, 1.0), (1, 3, 1.0)])
        with pytest.raises(NoConvergence, match=r"\|lambda_2\| = 1\.0+ is not contractive"):
            pcsim.spectral_analysis(net)

    def test_periodic_matrix_raises(self):
        # swap matrix has |lambda_2| = 1: no consensus, no contraction
        net = pcsim.build_network(2, [(1, 2, 1.0), (2, 1, 1.0)])
        with pytest.raises(NoConvergence):
            pcsim.spectral_analysis(net)


class TestConsensusValue:
    def test_mean_for_doubly_stochastic(self):
        sp = pcsim.spectral_analysis(two_agent_doubly_stochastic())
        assert pcsim.consensus_value(sp, np.array([0.0, 2.0])) == pytest.approx(1.0)

    def test_weighted_dot_product(self):
        # L = [[0.4, 0.6], [0.2, 0.8]] has left eigenvector (0.25, 0.75)
        net = pcsim.build_network(2, [(1, 2, 0.2), (2, 1, 0.6)])
        sp = pcsim.spectral_analysis(net)
        np.testing.assert_allclose(sp.w_left, [0.25, 0.75], atol=1e-10)
        assert pcsim.consensus_value(sp, np.array([4.0, 8.0])) == pytest.approx(7.0)

    def test_uniform_state_is_fixed(self):
        rng = np.random.default_rng(14)
        net = random_network(rng, 8)
        sp = pcsim.spectral_analysis(net)
        assert pcsim.consensus_value(sp, np.full(8, 3.25)) == pytest.approx(3.25)

    def test_dimension_mismatch(self):
        sp = pcsim.spectral_analysis(two_agent_doubly_stochastic())
        with pytest.raises(DimensionMismatch):
            pcsim.consensus_value(sp, np.zeros(3))


class TestProjectorIdentities:
    """The averaging projector J = 1 w^T and the deflated matrix L - J."""

    def test_two_agent_exact(self):
        net = two_agent_doubly_stochastic()
        sp = pcsim.spectral_analysis(net)
        res = pcsim.verify_projector_identities(net, sp, horizon=10)
        for name, value in res.items():
            assert value <= 1e-12, name

    def test_projector_idempotent_under_repeated_powers(self, ring25, spectral25):
        J = np.outer(np.ones(25), spectral25.w_left)
        P = J.copy()
        for _ in range(30):
            P = P @ J
            assert np.max(np.abs(P - J)) <= 1e-13

    def test_ring_residuals(self, ring25, spectral25):
        res = pcsim.verify_projector_identities(ring25, spectral25, horizon=50)
        # the power limit |L^k - J| is still ~0.992^50 at k=50; every
        # per-step identity must already be at rounding level
        identities = {k: v for k, v in res.items() if k != "power_limit"}
        assert max(identities.values()) <= 1e-8
        assert res["power_limit"] <= 10 * spectral25.lambda2_mag**50

    def test_ring_power_limit_at_long_horizon(self, ring25, spectral25):
        res = pcsim.verify_projector_identities(ring25, spectral25, horizon=4000)
        assert res["power_limit"] <= 1e-10

    def test_deflated_radius_below_one_forces_power_limit(self):
        rng = np.random.default_rng(15)
        net = random_network(rng, 10)
        sp = pcsim.spectral_analysis(net)
        res = pcsim.verify_projector_identities(net, sp, horizon=400)
        assert sp.lambda2_mag < 1
        # contraction drives the residual to the rounding floor of 400 matmuls
        assert res["power_limit"] <= 1e-8
