import numpy as np
import pytest

from muxepi import (
    DynamicsParams,
    Graph,
    InvalidArgumentError,
    MmcaState,
    NonConvergenceError,
    build_h_matrix,
    build_multiplex,
    epidemic_threshold,
    generate_ba,
    generate_ws,
    init_mmca,
    leading_eigenvalue,
    mmca_rates,
    mmca_run,
    mmca_step,
    uau_steady_state,
)
from muxepi.mmca import write_node_csv, write_threshold_csv
from oracles import dense_spectral_radius, two_node_chain_marginals


def default_params(**kwargs):
    base = dict(lam=0.5, delta=0.04, beta_u=0.3, gamma=0.5, mu=0.06)
    base.update(kwargs)
    return DynamicsParams(**base)


def chain_net():
    g = Graph(2, [(0, 1)])
    return build_multiplex(g, g)


def small_net(n=200, seed=0):
    return build_multiplex(
        generate_ba(n, 4, seed=seed), generate_ws(n, 4, 0.1, seed=seed + 1)
    )


def ring_net(n=50):
    ring = generate_ws(n, 4, 0.0)
    return build_multiplex(ring, ring)


class TestRates:
    def test_hand_example_two_nodes(self):
        net = chain_net()
        params = default_params(lam=0.4, beta_u=0.5, gamma=0.2)
        state = init_mmca(net, [], params)
        # Node 0's only neighbor is node 1 and vice versa.
        p_a = state.p_a
        p_i = state.p_i
        r, q_a, q_u = mmca_rates(state, net, params)
        for i, j in ((0, 1), (1, 0)):
            assert r[i] == pytest.approx(1.0 - 0.4 * p_a[j])
            assert q_a[i] == pytest.approx(1.0 - 0.1 * p_i[j])
            assert q_u[i] == pytest.approx(1.0 - 0.5 * p_i[j])

    def test_isolated_node_rates_are_one(self):
        g = Graph(3, [(0, 1)])
        net = build_multiplex(g, g)
        state = init_mmca(net, [], default_params())
        r, q_a, q_u = mmca_rates(state, net, default_params())
        assert r[2] == q_a[2] == q_u[2] == 1.0

    def test_certain_transmission_zero_factor(self):
        net = chain_net()
        params = default_params(lam=1.0)
        state = init_mmca(net, [], params)
        state.p_as[:] = 1.0 - state.p_ai
        state.p_us[:] = 0.0
        r, _, _ = mmca_rates(state, net, params)
        assert r.tolist() == [0.0, 0.0]


class TestStep:
    def test_probability_conservation(self):
        net = small_net()
        params = default_params()
        state = init_mmca(net, range(0, 200, 7), params)
        for _ in range(200):
            state = mmca_step(state, net, params)
            assert np.abs(state.component_sums() - 1.0).max() < 1e-12
            for arr in (state.p_us, state.p_as, state.p_ai,
                        state.p_ur, state.p_ar, state.p_ui):
                assert (arr >= -1e-15).all() and (arr <= 1.0 + 1e-12).all()

    def test_silenced_awareness_channel_clamped(self):
        net = small_net()
        params = default_params()
        omega = list(range(0, 200, 7))
        state = init_mmca(net, omega, params)
        for _ in range(100):
            state = mmca_step(state, net, params)
            assert state.p_as[omega].max() == 0.0
            assert state.p_ai[omega].max() == 0.0
            assert state.p_ar[omega].max() == 0.0

    def test_nonsilenced_have_no_unaware_infected_mass(self):
        net = small_net()
        params = default_params()
        state = init_mmca(net, [0, 1], params)
        for _ in range(50):
            state = mmca_step(state, net, params)
        mask = ~state.omega
        assert state.p_ui[mask].max() == 0.0

    def test_matches_exact_chain_on_two_nodes(self):
        # The independence closure is not exact on a correlated pair, but
        # must track the exact joint chain closely.
        net = chain_net()
        params = default_params(lam=0.2, delta=0.1, beta_u=0.15, gamma=0.5, mu=0.15,
                                initial_infected_fraction=0.5)
        state = init_mmca(net, [], params)
        # Node-resolved comparison needs matching initial conditions: the
        # oracle starts from node 0 infected-aware, node 1 susceptible-unaware.
        state.p_us[:] = [0.0, 1.0]
        state.p_ai[:] = [1.0, 0.0]
        initial = {(("I", True), ("S", False)): 1.0}
        exact = two_node_chain_marginals(params, True, True, initial, 6)
        for t, (p_a, p_i, p_r) in enumerate(exact):
            # A 2-node pair is maximally correlated and its exact chain has
            # an absorbing all-unaware state the closure cannot reach, so
            # agreement is transient: tight over the first several steps.
            assert np.abs(state.p_a - p_a).max() < 0.03
            assert np.abs(state.p_i - p_i).max() < 0.03
            assert np.abs(state.p_r - p_r).max() < 0.03
            state = mmca_step(state, net, params)


class TestRun:
    def test_reaches_disease_free_fixed_point(self):
        net = small_net()
        params = default_params(beta_u=0.02)  # below threshold
        state = mmca_run(net, [3, 9], params)
        assert state.p_i.max() < 1e-6
        nxt = mmca_step(state, net, params)
        assert np.abs(nxt.p_a - state.p_a).max() < 1e-6

    def test_epidemic_regime_recovers_everyone_almost(self):
        net = small_net()
        state = mmca_run(net, [], default_params(beta_u=0.5))
        assert state.rho()["rho_r"] > 0.9

    def test_nonconvergence_raises(self):
        net = small_net(60, seed=5)
        with pytest.raises(NonConvergenceError) as exc:
            mmca_run(net, [], default_params(), max_iter=3)
        assert isinstance(exc.value.last_iterate, MmcaState)


class TestUauSteadyState:
    def test_zero_lambda_dies_out(self):
        p = uau_steady_state(small_net(), default_params(lam=0.0), tol=1e-12)
        assert p.max() < 1e-9

    def test_no_forgetting_saturates(self):
        p = uau_steady_state(small_net(), default_params(lam=0.3, delta=0.0))
        assert p.min() > 1.0 - 1e-6

    def test_regular_graph_is_homogeneous_scalar_root(self):
        net = ring_net()
        params = default_params(lam=0.5, delta=0.3)
        p = uau_steady_state(net, params)
        assert p.max() - p.min() < 1e-8
        v = p[0]
        # Scalar self-consistency on a 4-regular graph.
        r = (1.0 - params.lam * v) ** 4
        assert v == pytest.approx(v * (1.0 - params.delta) + (1.0 - v) * (1.0 - r), abs=1e-8)

    def test_init_independent(self):
        net = small_net()
        params = default_params()
        a = uau_steady_state(net, params, init=0.9, tol=1e-12)
        b = uau_steady_state(net, params, init=0.1, tol=1e-12)
        assert np.abs(a - b).max() < 1e-8

    def test_silenced_pinned_to_zero(self):
        p = uau_steady_state(small_net(), default_params(), omega_set=[4, 8])
        assert p[4] == 0.0 and p[8] == 0.0
        others = np.delete(p, [4, 8])
        assert others.min() > 0.0


class TestHMatrix:
    def test_unaware_population_gives_plain_adjacency(self):
        g = generate_ws(30, 4, 0.2, seed=1)
        h = build_h_matrix(np.zeros(30), g, gamma=0.5)
        assert (h.toarray() == g.adjacency().toarray().T).all()

    def test_gamma_one_ignores_awareness(self):
        g = generate_ws(30, 4, 0.2, seed=1)
        h = build_h_matrix(np.full(30, 0.7), g, gamma=1.0)
        assert (h.toarray() == g.adjacency().toarray().T).all()

    def test_fully_aware_scales_by_gamma(self):
        g = generate_ws(30, 4, 0.2, seed=1)
        h = build_h_matrix(np.ones(30), g, gamma=0.25)
        assert np.allclose(h.toarray(), 0.25 * g.adjacency().toarray().T)

    def test_rows_scaled_by_receiver_awareness(self):
        g = Graph(2, [(0, 1)])
        h = build_h_matrix(np.array([0.8, 0.0]), g, gamma=0.5).toarray()
        assert h[0, 1] == pytest.approx(1.0 - 0.5 * 0.8)
        assert h[1, 0] == pytest.approx(1.0)

    def test_rejects_bad_probabilities(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(InvalidArgumentError):
            build_h_matrix(np.array([0.5, 1.2]), g, gamma=0.5)


class TestLeadingEigenvalue:
    def test_diagonal(self):
        assert leading_eigenvalue(np.diag([3.0, 1.0, 2.0])) == pytest.approx(3.0, abs=1e-8)

    def test_zero_matrix(self):
        assert leading_eigenvalue(np.zeros((4, 4))) == 0.0

    def test_ring_regular_degree(self):
        g = generate_ws(40, 4, 0.0)
        assert leading_eigenvalue(g.adjacency()) == pytest.approx(4.0, abs=1e-6)

    def test_star_is_bipartite(self):
        # sqrt(n-1) for a star; the +/- eigenvalue pair forces the shifted retry.
        g = Graph(5, [(0, i) for i in range(1, 5)])
        assert leading_eigenvalue(g.adjacency()) == pytest.approx(2.0, abs=1e-6)

    def test_accepts_h_matrix_wrapper(self):
        g = generate_ws(40, 4, 0.0)
        h = build_h_matrix(np.full(40, 0.5), g, gamma=0.5)
        assert leading_eigenvalue(h) == pytest.approx(3.0, abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.random((15, 15))
        assert leading_eigenvalue(m, tol=1e-13) == pytest.approx(
            dense_spectral_radius(m), abs=1e-8
        )

    def test_complex_dominant_pair_raises(self):
        rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(NonConvergenceError):
            leading_eigenvalue(rotation, max_iter=2000)


class TestEpidemicThreshold:
    def test_ring_gamma_one(self):
        # Awareness cannot protect anyone at gamma=1, so the threshold is
        # mu over the contact spectral radius: 0.06 / 4.
        net = ring_net(100)
        res = epidemic_threshold(net, default_params(gamma=1.0))
        assert res.beta_c == pytest.approx(0.015, abs=1e-9)
        assert res.lambda_max == pytest.approx(4.0, abs=1e-6)

    def test_threshold_decreases_with_gamma(self):
        net = small_net()
        prev = None
        for gamma in (0.1, 0.5, 0.9):
            res = epidemic_threshold(net, default_params(gamma=gamma))
            if prev is not None:
                assert res.beta_c < prev
            prev = res.beta_c

    def test_awareness_raises_threshold(self):
        # Damped rows can only shrink the spectral radius.
        net = small_net()
        params = default_params(gamma=0.3)
        res = epidemic_threshold(net, params)
        bare = leading_eigenvalue(net.contact_layer.adjacency())
        assert res.lambda_max <= bare + 1e-9
        assert res.beta_c >= params.mu / bare - 1e-12

    def test_requires_positive_mu(self):
        with pytest.raises(InvalidArgumentError):
            epidemic_threshold(ring_net(), default_params(mu=0.0))

    def test_frozen_reference_configuration(self):
        # Regression pin for the default parameter set on a 10000-node
        # network pair; value frozen from a validated run.
        net = build_multiplex(
            generate_ba(10000, 4, seed=1), generate_ws(10000, 4, 0.1, seed=2)
        )
        res = epidemic_threshold(net, default_params())
        assert res.lambda_max == pytest.approx(2.1799314996239696, abs=1e-6)
        assert res.beta_c == pytest.approx(0.02752380063793279, abs=1e-6)

    def test_linear_stability_matches_threshold(self):
        # Seed an infinitesimal infection at the disease-free fixed point:
        # total infected mass must grow above beta_c and decay below it.
        net = small_net()
        base = default_params()
        res = epidemic_threshold(net, base)
        p_a = res.p_a
        for factor, grows in ((1.2, True), (0.8, False)):
            params = default_params(beta_u=factor * res.beta_c)
            eps = 1e-6
            state = MmcaState(
                p_us=(1.0 - p_a) * (1.0 - eps),
                p_as=p_a * (1.0 - eps),
                p_ai=np.full(net.node_count, eps),
                p_ur=np.zeros(net.node_count),
                p_ar=np.zeros(net.node_count),
                p_ui=np.zeros(net.node_count),
                omega=np.zeros(net.node_count, dtype=bool),
            )
            masses = []
            for _ in range(60):
                state = mmca_step(state, net, params)
                masses.append(float(state.p_i.sum()))
            ratio = masses[-1] / masses[29]
            assert (ratio > 1.0) == grows


class TestCsvOutput:
    def test_threshold_csv(self, tmp_path):
        net = ring_net()
        params = default_params(gamma=1.0)
        res = epidemic_threshold(net, params)
        path = tmp_path / "threshold.csv"
        write_threshold_csv(res, params, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "gamma,lambda,delta,mu,lambda_max_H,beta_c"
        fields = lines[1].split(",")
        assert float(fields[0]) == 1.0 and float(fields[5]) == pytest.approx(0.015)

    def test_fixed_point_csv(self, tmp_path):
        path = tmp_path / "fp.csv"
        write_node_csv(path, ("p_a",), (np.array([0.25, 0.5]),))
        assert path.read_text() == "node,p_a\n0,0.25\n1,0.5\n"
