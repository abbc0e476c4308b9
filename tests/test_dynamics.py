import numpy as np
import pytest

from muxepi import (
    DynamicsParams,
    Graph,
    InvalidArgumentError,
    build_multiplex,
    counts,
    generate_ba,
    generate_ws,
    init_states,
    mc_step,
    run_to_absorption,
)
from muxepi.dynamics import A, I, R, S, StateVector
from oracles import two_node_chain_marginals


def small_net(n=200, seed=0):
    return build_multiplex(
        generate_ba(n, 4, seed=seed), generate_ws(n, 4, 0.1, seed=seed + 1)
    )


def default_params(**kwargs):
    base = dict(lam=0.5, delta=0.04, beta_u=0.3, gamma=0.5, mu=0.06)
    base.update(kwargs)
    return DynamicsParams(**base)


class TestParams:
    def test_beta_a_is_derived(self):
        p = default_params(beta_u=0.4, gamma=0.25)
        assert p.beta_a == pytest.approx(0.1)

    @pytest.mark.parametrize("bad", [dict(lam=1.5), dict(beta_u=-0.1), dict(gamma=2.0)])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(InvalidArgumentError):
            default_params(**bad)

    def test_rejects_bad_seed_fraction(self):
        with pytest.raises(InvalidArgumentError):
            default_params(initial_infected_fraction=0.0)


class TestInitStates:
    def test_seed_count_is_ceiling(self):
        net = small_net()
        sv = init_states(net, [], default_params(initial_infected_fraction=0.001),
                         np.random.default_rng(0))
        assert int(np.count_nonzero(sv.disease == I)) == 1

    def test_infected_nodes_start_aware(self):
        net = small_net()
        sv = init_states(net, [], default_params(initial_infected_fraction=0.1),
                         np.random.default_rng(1))
        infected = sv.disease == I
        assert (sv.aware == infected).all()

    def test_silenced_infected_stay_unaware(self):
        net = small_net()
        omega = list(range(net.node_count))
        sv = init_states(net, omega, default_params(initial_infected_fraction=0.1),
                         np.random.default_rng(2))
        assert not sv.aware.any()

    def test_rejects_out_of_range_omega(self):
        with pytest.raises(InvalidArgumentError):
            init_states(small_net(), [999], default_params(), np.random.default_rng(0))


def reference_step(states, net, params, rng):
    """Per-node-loop transcription of the update rules, consuming the same
    five uniform arrays in the same order as the vectorized step."""
    n = states.node_count
    u_inform = rng.random(n)
    u_forget = rng.random(n)
    u_infect = rng.random(n)
    u_recover = rng.random(n)
    u_post_forget = rng.random(n)
    aware_mid = np.zeros(n, dtype=bool)
    for i in range(n):
        aw = states.aware[i]
        if states.omega[i]:
            aware_mid[i] = False
            continue
        if not aw:
            n_aw = sum(states.aware[j] for j in net.awareness_layer.neighbors(i))
            if u_inform[i] >= (1.0 - params.lam) ** n_aw:
                aw = True
        elif states.disease[i] != I and u_forget[i] < params.delta:
            aw = False
        aware_mid[i] = aw
    disease_next = states.disease.copy()
    aware_next = aware_mid.copy()
    for i in range(n):
        n_inf = sum(states.disease[j] == I for j in net.contact_layer.neighbors(i))
        beta = params.beta_a if aware_mid[i] else params.beta_u
        if states.disease[i] == S and u_infect[i] >= (1.0 - beta) ** n_inf:
            disease_next[i] = I
            if not states.omega[i]:
                aware_next[i] = True
    for i in range(n):
        if states.disease[i] == I and u_recover[i] < params.mu:
            disease_next[i] = R
            if not states.omega[i] and u_post_forget[i] < params.delta:
                aware_next[i] = False
    return StateVector(disease_next, aware_next, states.omega, states.step + 1)


class TestMcStep:
    def test_matches_per_node_reference(self):
        net = small_net(80, seed=4)
        params = default_params(initial_infected_fraction=0.05)
        sv_a = init_states(net, [0, 5, 11], params, np.random.default_rng(7))
        sv_b = sv_a.copy()
        rng_a = np.random.default_rng(123)
        rng_b = np.random.default_rng(123)
        for _ in range(20):
            sv_a = mc_step(sv_a, net, params, rng_a)
            sv_b = reference_step(sv_b, net, params, rng_b)
            assert (sv_a.disease == sv_b.disease).all()
            assert (sv_a.aware == sv_b.aware).all()

    def test_deterministic_given_seed(self):
        net = small_net()
        params = default_params()
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(55)
            sv = init_states(net, [3], params, rng)
            for _ in range(30):
                sv = mc_step(sv, net, params, rng)
            runs.append(sv)
        assert (runs[0].disease == runs[1].disease).all()
        assert (runs[0].aware == runs[1].aware).all()

    def test_recovered_is_absorbing(self):
        net = small_net()
        params = default_params(mu=1.0, initial_infected_fraction=0.2)
        rng = np.random.default_rng(9)
        sv = init_states(net, [], params, rng)
        for _ in range(50):
            was_r = sv.disease == R
            sv = mc_step(sv, net, params, rng)
            assert (sv.disease[was_r] == R).all()

    def test_silenced_never_aware(self):
        net = small_net()
        params = default_params(initial_infected_fraction=0.1)
        omega = list(range(0, 200, 5))
        rng = np.random.default_rng(10)
        sv = init_states(net, omega, params, rng)
        for _ in range(60):
            sv = mc_step(sv, net, params, rng)
            assert not sv.aware[omega].any()

    def test_infected_nonsilenced_always_aware(self):
        net = small_net()
        params = default_params(initial_infected_fraction=0.1)
        rng = np.random.default_rng(11)
        sv = init_states(net, [2, 4], params, rng)
        for _ in range(60):
            sv = mc_step(sv, net, params, rng)
            mask = (sv.disease == I) & ~sv.omega
            assert sv.aware[mask].all()

    def test_no_infection_without_infected_neighbor(self):
        # Two disconnected contact components: infection cannot jump.
        awareness = Graph(4, [(0, 1), (1, 2), (2, 3)])
        contact = Graph(4, [(0, 1), (2, 3)])
        net = build_multiplex(awareness, contact)
        params = default_params(beta_u=1.0, gamma=1.0)
        disease = np.array([I, S, S, S], dtype=np.int8)
        sv = StateVector(disease, np.array([True, False, False, False]),
                         np.zeros(4, dtype=bool))
        rng = np.random.default_rng(12)
        for _ in range(40):
            sv = mc_step(sv, net, params, rng)
            assert sv.disease[2] == S and sv.disease[3] == S

    def test_single_edge_infection_rate(self):
        # One infected neighbor, unaware target: infection per step is a
        # Bernoulli(beta_u) event. 3-sigma binomial band over 4000 trials.
        awareness = Graph(2, [])
        contact = Graph(2, [(0, 1)])
        net = build_multiplex(awareness, contact)
        params = default_params(beta_u=0.3, mu=0.0, lam=0.0)
        rng = np.random.default_rng(13)
        trials = 4000
        hits = 0
        for _ in range(trials):
            sv = StateVector(np.array([I, S], dtype=np.int8),
                             np.array([True, False]), np.zeros(2, dtype=bool))
            sv = mc_step(sv, net, params, rng)
            hits += sv.disease[1] == I
        p = params.beta_u
        sigma = np.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) < 3 * sigma

    def test_matches_exact_two_node_chain(self):
        # Empirical marginals over many replications of a 2-node multiplex
        # against the exact 25-state joint chain.
        awareness = Graph(2, [(0, 1)])
        contact = Graph(2, [(0, 1)])
        net = build_multiplex(awareness, contact)
        params = default_params(lam=0.4, delta=0.2, beta_u=0.35, gamma=0.4, mu=0.25)
        steps, reps = 10, 4000
        rng = np.random.default_rng(14)
        acc_a = np.zeros((steps + 1, 2))
        acc_i = np.zeros((steps + 1, 2))
        acc_r = np.zeros((steps + 1, 2))
        for _ in range(reps):
            sv = StateVector(np.array([I, S], dtype=np.int8),
                             np.array([True, False]), np.zeros(2, dtype=bool))
            for t in range(steps + 1):
                acc_a[t] += sv.aware
                acc_i[t] += sv.disease == I
                acc_r[t] += sv.disease == R
                sv = mc_step(sv, net, params, rng)
        initial = {((("I", True)), (("S", False))): 1.0}
        exact = two_node_chain_marginals(params, True, True, initial, steps)
        for t, (p_a, p_i, p_r) in enumerate(exact):
            assert np.abs(acc_a[t] / reps - p_a).max() < 0.03
            assert np.abs(acc_i[t] / reps - p_i).max() < 0.03
            assert np.abs(acc_r[t] / reps - p_r).max() < 0.03


class TestRunToAbsorption:
    def test_absorbs_and_conserves(self):
        net = small_net()
        params = default_params(initial_infected_fraction=0.01)
        traj = run_to_absorption(net, [1, 2], params, np.random.default_rng(20))
        assert traj.absorbed
        assert traj.steps.shape == (traj.absorption_step + 1 + 100, 4)
        assert traj.steps[-1, I] == 0.0
        for row in traj.steps:
            assert row[S] + row[I] + row[R] == pytest.approx(1.0, abs=1e-12)

    def test_tail_appended_after_absorption(self):
        net = small_net()
        params = default_params()
        traj = run_to_absorption(net, [], params, np.random.default_rng(21), tail_window=50)
        assert len(traj.steps) == traj.absorption_step + 1 + 50

    def test_counts_exact_fractions(self):
        sv = StateVector(np.array([S, I, R, R], dtype=np.int8),
                         np.array([False, True, False, True]),
                         np.zeros(4, dtype=bool))
        c = counts(sv)
        assert c.dtype == np.float64
        assert (c[S], c[I], c[R], c[A]) == (0.25, 0.25, 0.5, 0.5)


class TestMeanTailRhoA:
    def test_absorbed_run_averages_the_tail(self):
        net = small_net()
        traj = run_to_absorption(net, [], default_params(), np.random.default_rng(21),
                                 tail_window=50)
        assert traj.absorbed
        assert traj.mean_tail_rho_a == np.mean(traj.steps[-50:, A])

    def test_zero_tail_window_gives_last_value(self):
        net = small_net()
        traj = run_to_absorption(net, [], default_params(), np.random.default_rng(21),
                                 tail_window=0)
        assert traj.absorbed
        assert len(traj.steps) == traj.absorption_step + 1
        assert traj.mean_tail_rho_a == traj.steps[-1, A]

    def test_unabsorbed_run_gives_last_value(self):
        net = small_net()
        params = default_params(mu=0.0, max_steps=2)
        traj = run_to_absorption(net, [], params, np.random.default_rng(21), tail_window=50)
        assert not traj.absorbed and traj.absorption_step is None
        assert len(traj.steps) == 3
        assert traj.mean_tail_rho_a == traj.steps[-1, A]
