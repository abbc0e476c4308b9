from copy import deepcopy
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp, norm

from muxepi import (
    DynamicsParams,
    Graph,
    InvalidArgumentError,
    MultiplexNetwork,
    counts,
    generate_ba,
    generate_ws,
    init_states,
    mc_step,
    run_to_absorption,
)
from muxepi.dynamics import A, I, R, S, StateVector, omega_mask
from oracles import (
    _node_transition,
    dense_step,
    isolated_net,
    neighbors,
    two_node_chain_marginals,
)


def small_net(n=200, seed=0):
    return MultiplexNetwork(
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

    @pytest.mark.parametrize(
        "bad, message",
        [(dict(lam=1.5), "lam 1.5 outside range [0.0, 1.0]"),
         (dict(beta_u=-0.1), "beta_u -0.1 outside range [0.0, 1.0]"),
         (dict(gamma=2.0), "gamma 2.0 outside range [0.0, 1.0]"),
         (dict(max_steps=0), "max_steps must be >= 1, got 0"),
         (dict(max_steps=float("nan")), "max_steps must be >= 1, got nan"),
         (dict(max_steps=2.5), "max_steps must be a whole number, got 2.5")],
        ids=["bad0", "bad1", "bad2", "bad3", "bad4", "bad5"])
    def test_rejects_out_of_range(self, bad, message):
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
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

    @pytest.mark.parametrize("omega_set", [[False, False, True, False, True], [1.7, 3.2]],
                             ids=["bool_mask", "floats"])
    def test_omega_mask_rejects_non_integer_entries(self, omega_set):
        # Cast to int64, a bool mask would silence nodes 0 and 1, and floats truncate.
        with pytest.raises(InvalidArgumentError, match="omega_set"):
            omega_mask(5, omega_set)
        with pytest.raises(InvalidArgumentError, match="omega_set"):
            init_states(small_net(), omega_set, default_params(), np.random.default_rng(0))

    @pytest.mark.parametrize(
        "omega_set, silenced",
        [([], []), ({4, 2}, [2, 4]), (range(1, 3), [1, 2]),
         (np.array([0, 3], dtype=np.int64), [0, 3])],
        ids=["empty_list", "set", "range", "int64_array"],
    )
    def test_omega_mask_accepts_integer_indices(self, omega_set, silenced):
        assert np.flatnonzero(omega_mask(5, omega_set)).tolist() == silenced

    def test_silenced_mask_is_read_only(self):
        # A state's mask is fixed for the whole run, so it cannot be edited in place.
        state = init_states(small_net(), [3, 9], default_params(), np.random.default_rng(0))
        with pytest.raises(ValueError, match="read-only"):
            state.omega[0] = True

    def test_rejects_zero_nodes(self):
        # Nothing to seed, and every fraction would be 0/0.
        net = MultiplexNetwork(Graph(0, []), Graph(0, []))
        with pytest.raises(InvalidArgumentError, match="node_count=0"):
            init_states(net, [], default_params(), np.random.default_rng(0))
        with pytest.raises(InvalidArgumentError, match="node_count=0"):
            run_to_absorption(net, [], default_params(), np.random.default_rng(0))


def reference_step(states, net, params, rng):
    """Per-node-loop transcription of the update rules, consuming the same
    five uniform arrays in the same order as the dense oracle step."""
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
            n_aw = sum(states.aware[j] for j in neighbors(net.awareness_layer, i))
            if u_inform[i] >= (1.0 - params.lam) ** n_aw:
                aw = True
        elif states.disease[i] != I and u_forget[i] < params.delta:
            aw = False
        aware_mid[i] = aw
    disease_next = states.disease.copy()
    aware_next = aware_mid.copy()
    for i in range(n):
        n_inf = sum(states.disease[j] == I for j in neighbors(net.contact_layer, i))
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


def hub_net(n=80, seed=4):
    """small_net with node n-1 linked to every other node in both layers."""
    net = small_net(n, seed=seed)
    spokes = [(i, n - 1) for i in range(n - 1)]
    return MultiplexNetwork(
        Graph(n, [*net.awareness_layer.edges(), *spokes]),
        Graph(n, [*net.contact_layer.edges(), *spokes]),
    )


def assert_matches_reference(params, steps=20):
    """The dense oracle step against its per-node transcription, bit for bit."""
    net = hub_net()
    sv_a = init_states(net, [0, 5, 11], params, np.random.default_rng(7))
    sv_b = replace(sv_a, disease=sv_a.disease.copy(), aware=sv_a.aware.copy())
    rng_a = np.random.default_rng(123)
    rng_b = np.random.default_rng(123)
    hub_aware_nbrs = set()
    for _ in range(steps):
        hub_aware_nbrs.add(int(np.count_nonzero(sv_a.aware[:-1])))
        sv_a = dense_step(sv_a, net, params, rng_a)
        sv_b = reference_step(sv_b, net, params, rng_b)
        assert (sv_a.disease == sv_b.disease).all()
        assert (sv_a.aware == sv_b.aware).all()
    # The hub sees every other node, so its aware-neighbour count moves.
    assert len(hub_aware_nbrs) > 1


class TestMcStep:
    def test_matches_per_node_reference(self):
        assert_matches_reference(default_params(initial_infected_fraction=0.05))

    # lam=1 and beta_u=1 put base 0 into the powers, where 0**0 must stay
    # 1.0; gamma=0 makes every aware escape probability one.
    @pytest.mark.parametrize(
        "rates",
        [
            dict(lam=1.0, beta_u=1.0, gamma=0.0),
            dict(lam=1.0),
            dict(beta_u=1.0),
            dict(gamma=0.0),
        ],
    )
    def test_matches_per_node_reference_at_edge_rates(self, rates):
        assert_matches_reference(default_params(initial_infected_fraction=0.05, **rates))

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
        net = MultiplexNetwork(awareness, contact)
        params = default_params(beta_u=1.0, gamma=1.0)
        disease = np.array([I, S, S, S], dtype=np.int8)
        sv = StateVector(disease, np.array([True, False, False, False]),
                         np.zeros(4, dtype=bool))
        rng = np.random.default_rng(12)
        for _ in range(40):
            sv = mc_step(sv, net, params, rng)
            assert sv.disease[2] == S and sv.disease[3] == S

    def test_zero_node_state_steps_to_empty_state(self):
        net = MultiplexNetwork(Graph(0, []), Graph(0, []))
        sv = StateVector(np.zeros(0, dtype=np.int8), np.zeros(0, dtype=bool),
                         np.zeros(0, dtype=bool))
        nxt = mc_step(sv, net, default_params(), np.random.default_rng(0))
        assert nxt.step == 1 and nxt.node_count == 0
        assert len(nxt.aware_nbrs) == len(nxt.infected_nbrs) == 0
        assert np.array_equal(nxt.tallies, [0, 0, 0, 0])

    def test_single_edge_infection_rate(self):
        # One infected neighbor, unaware target: infection per step is a
        # Bernoulli(beta_u) event. 3-sigma binomial band over 4000 trials.
        awareness = Graph(2, [])
        contact = Graph(2, [(0, 1)])
        net = MultiplexNetwork(awareness, contact)
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
        net = MultiplexNetwork(awareness, contact)
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


def spmv_counts(net, sv):
    """Aware awareness-layer and infected contact-layer neighbours, by one SpMV each."""
    return (
        net.awareness_layer.adjacency() @ sv.aware.astype(np.float64),
        net.contact_layer.adjacency() @ (sv.disease == I).astype(np.float64),
    )


def carry_case(name):
    """(net, params, first state) of one carried-count scenario."""
    params = default_params(initial_infected_fraction=0.05)
    rng = np.random.default_rng(30)
    if name == "all_silenced":
        net = small_net()
        return net, params, init_states(net, range(net.node_count), params, rng)
    if name in ("all_infected", "none_aware_or_infected"):  # hand-built: counted on entry
        net = small_net()
        n = net.node_count
        disease = np.full(n, I if name == "all_infected" else S, dtype=np.int8)
        return net, params, StateVector(disease, disease == I, np.zeros(n, dtype=bool))
    if name == "isolated_nodes":
        net = isolated_net()
        return net, params, init_states(net, [2, 7, 40], params, rng)
    if name == "hub":
        net = hub_net()
        return net, params, init_states(net, [0, 5, 11], params, rng)
    if name == "never_absorbs":
        net = small_net()
        params = default_params(mu=0.0, initial_infected_fraction=0.05)
        return net, params, init_states(net, [3, 8], params, rng)
    assert name == "lam_one_burst"
    net = small_net()
    params = default_params(lam=1.0, delta=0.5, initial_infected_fraction=0.2)
    return net, params, init_states(net, [], params, rng)


class TestCarriedCounts:
    @pytest.mark.parametrize(
        "case",
        ["all_silenced", "all_infected", "none_aware_or_infected", "isolated_nodes", "hub",
         "lam_one_burst", "never_absorbs"],
    )
    def test_equal_spmv_recount_after_every_step(self, case):
        # The S/I/R/A tallies are carried too: they must equal a fresh count.
        net, params, sv = carry_case(case)
        if sv.aware_nbrs is not None:
            a_counts, b_counts = spmv_counts(net, sv)
            assert np.array_equal(sv.aware_nbrs, a_counts)
            assert np.array_equal(sv.infected_nbrs, b_counts)
        rng = np.random.default_rng(31)
        flips = []
        for _ in range(40):
            nxt = mc_step(sv, net, params, rng)
            a_counts, b_counts = spmv_counts(net, nxt)
            assert nxt.aware_nbrs.dtype == np.intp and nxt.infected_nbrs.dtype == np.intp
            assert np.array_equal(nxt.aware_nbrs, a_counts)
            assert np.array_equal(nxt.infected_nbrs, b_counts)
            assert nxt.tallies.dtype == np.int64
            assert np.array_equal(nxt.tallies / net.node_count, counts(nxt))
            assert not (nxt.aware & nxt.omega).any()
            flips.append(np.count_nonzero(nxt.aware != sv.aware))
            sv = nxt
        if case == "all_silenced":
            assert not sv.aware.any()
        if case == "lam_one_burst":
            assert max(flips) > net.node_count // 2
        if case == "never_absorbs":
            assert sv.tallies[I] > 0

    def test_coincident_events_in_one_step(self):
        # At lam = beta_u = delta = mu = gamma = 1 every event that can happen
        # does: all nodes are forget heads, every unaware node with an aware
        # neighbour learns, every exposed node is infected, every infected
        # node recovers and forgets.
        #   0: infected, aware;          1: susceptible, aware, contact of 0;
        #   2: susceptible, unaware, awareness and contact neighbour of 0;
        #   3: infected, silenced;       4: recovered, unaware, awareness neighbour of 0 and 3;
        #   5: susceptible, silenced, contact of 3.
        net = MultiplexNetwork(Graph(6, [(0, 2), (0, 4), (1, 5), (3, 4)]),
                              Graph(6, [(0, 1), (0, 2), (3, 5)]))
        params = default_params(lam=1.0, beta_u=1.0, delta=1.0, mu=1.0, gamma=1.0)
        sv = StateVector(np.array([I, S, S, I, R, S], dtype=np.int8),
                         np.array([True, True, False, False, False, False]),
                         np.array([False, False, False, True, False, True]))
        nxt = mc_step(sv, net, params, np.random.default_rng(0))
        # 1 forgets and is infected: no flip. 2 learns and is infected: one
        # gain. 3 recovers and forgets but was never aware: no flip.
        assert np.array_equal(nxt.disease, [R, I, I, R, R, I])
        assert np.array_equal(nxt.aware, [False, True, True, False, True, False])
        a_counts, b_counts = spmv_counts(net, nxt)
        assert np.array_equal(nxt.aware_nbrs, a_counts)
        assert np.array_equal(nxt.infected_nbrs, b_counts)
        assert np.array_equal(nxt.tallies / net.node_count, counts(nxt))

    def test_step_leaves_its_input_unchanged(self):
        net, params, sv = carry_case("lam_one_burst")
        rng = np.random.default_rng(32)
        sv = mc_step(sv, net, params, rng)  # carries every field from here on
        fields = ("disease", "aware", "aware_nbrs", "infected_nbrs", "tallies")
        for _ in range(10):
            before = [getattr(sv, name).copy() for name in fields]
            nxt = mc_step(sv, net, params, rng)
            for name, old in zip(fields, before):
                assert np.array_equal(getattr(sv, name), old), name
            sv = nxt

    def test_hand_built_state_steps_like_carried(self):
        net = hub_net()
        params = default_params(initial_infected_fraction=0.05)
        carried = init_states(net, [0, 5, 11], params, np.random.default_rng(3))
        rng_a = np.random.default_rng(8)
        rng_b = np.random.default_rng(8)
        bare = carried
        for _ in range(30):
            # A fresh hand-built state each step, so every step counts on entry.
            bare = StateVector(bare.disease.copy(), bare.aware.copy(), bare.omega, bare.step)
            assert bare.aware_nbrs is None and bare.infected_nbrs is None
            carried = mc_step(carried, net, params, rng_a)
            bare = mc_step(bare, net, params, rng_b)
            assert (carried.disease == bare.disease).all()
            assert (carried.aware == bare.aware).all()

    def test_step_without_aware_or_infected_draws_only_forget_coins(self):
        # Nobody can learn, be infected or recover, so the step's only draws
        # are the heads of the N forget coins: a binomial count, then a
        # uniform subset of that size.
        net = small_net()
        n = net.node_count
        disease = np.where(np.arange(n) % 3 == 0, R, S).astype(np.int8)
        sv = StateVector(disease, np.zeros(n, dtype=bool), np.zeros(n, dtype=bool))
        for delta in (0.04, 1.0, 0.0):
            rng = np.random.default_rng(42)
            twin = np.random.default_rng(42)
            nxt = mc_step(sv, net, default_params(delta=delta), rng)
            twin.choice(n, twin.binomial(n, delta), replace=False, shuffle=False)
            assert rng.bit_generator.state == twin.bit_generator.state
            assert np.array_equal(nxt.disease, disease) and not nxt.aware.any()

    @pytest.mark.parametrize("rates", [dict(), dict(lam=1.0, beta_u=1.0, gamma=0.0)])
    def test_params_swap_mid_run_steps_like_bare_state(self, rates):
        # A carried state stepped under new rates must step as a state that
        # carries nothing from the old ones: no power of the old lam or beta_u
        # may survive the swap.
        net = hub_net()
        params_a = default_params(initial_infected_fraction=0.05, **rates)
        params_b = replace(params_a, lam=0.2, beta_u=0.7)
        carried = init_states(net, [0, 5, 11], params_a, np.random.default_rng(5))
        rng = np.random.default_rng(6)
        for _ in range(5):
            carried = mc_step(carried, net, params_a, rng)
        bare = StateVector(
            carried.disease.copy(), carried.aware.copy(), carried.omega, carried.step
        )
        twin = deepcopy(rng)
        exposed = []
        for _ in range(10):
            exposed.append(np.count_nonzero((carried.disease == S) & (carried.infected_nbrs > 0)))
            carried = mc_step(carried, net, params_b, rng)
            bare = mc_step(bare, net, params_b, twin)
            for name in ("disease", "aware", "aware_nbrs", "infected_nbrs", "tallies"):
                assert np.array_equal(getattr(carried, name), getattr(bare, name)), name
            assert rng.bit_generator.state == twin.bit_generator.state
        # The swap is tested only where exposed nodes draw at the new beta_u.
        assert max(exposed) > 0


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

    def test_step_cap_at_the_absorption_step_still_absorbs_and_keeps_the_tail(self):
        net = small_net()
        first = run_to_absorption(net, [], default_params(), np.random.default_rng(21),
                                  tail_window=30)
        t = first.absorption_step
        capped = run_to_absorption(net, [], default_params(max_steps=t),
                                   np.random.default_rng(21), tail_window=30)
        assert capped.absorbed and capped.absorption_step == t
        assert len(capped.steps) == t + 1 + 30
        assert np.array_equal(capped.steps, first.steps)

    def test_run_that_never_absorbs_keeps_every_capped_step(self):
        net = small_net()
        params = default_params(mu=0.0, max_steps=40)
        traj = run_to_absorption(net, [], params, np.random.default_rng(21), tail_window=30)
        assert not traj.absorbed and traj.absorption_step is None
        assert len(traj.steps) == 40 + 1

    def test_rows_are_the_counts_of_each_step(self):
        # Rows come from the carried tallies: the fractions `counts` gives.
        net = small_net()
        params = default_params(initial_infected_fraction=0.05)
        traj = run_to_absorption(net, [4, 9], params, np.random.default_rng(22), tail_window=10)
        rng = np.random.default_rng(22)
        sv = init_states(net, [4, 9], params, rng)
        rows = [counts(sv)]
        for _ in range(len(traj.steps) - 1):
            sv = mc_step(sv, net, params, rng)
            rows.append(counts(sv))
        assert traj.absorbed and np.array_equal(traj.steps, rows)

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


def mixed_state(net, rng):
    """A hand-built state holding every kind of node: susceptible aware and
    unaware, infected, recovered aware and unaware, and silenced ones."""
    n = net.node_count
    disease = rng.choice([S, I, R], size=n, p=[0.6, 0.15, 0.25]).astype(np.int8)
    omega = np.arange(n) % 9 == 0
    aware = ((disease == I) | (rng.random(n) < 0.4)) & ~omega
    return StateVector(disease, aware, omega)


# The disease codes of `_node_transition`'s state names; below, a node's joint
# state (disease, aware) is counted in column 2 * disease + aware.
_LABELS = {"S": S, "I": I, "R": R}


def run_summary(step, net, omega, params, rng, tail=20):
    """(final rho_R, absorption step, tail-mean rho_A) of one run driven by `step`."""
    sv = init_states(net, omega, params, rng)
    rows = [counts(sv)]
    while rows[-1][I] > 0:
        sv = step(sv, net, params, rng)
        rows.append(counts(sv))
    t = len(rows) - 1
    for _ in range(tail):
        sv = step(sv, net, params, rng)
        rows.append(counts(sv))
    return rows[t][R], t, np.mean([row[A] for row in rows[t + 1 :]])


class TestSparseDrawLaw:
    """The sparse-draw step against the dense five-uniform step in law."""

    ALPHA = 0.001  # per test, fixed before the first run

    @pytest.mark.parametrize("rates", [dict(), dict(lam=1.0, beta_u=1.0, gamma=0.0)])
    def test_one_step_frequencies_match_node_transitions(self, rates):
        net = small_net(100, seed=3)
        n = net.node_count
        params = replace(default_params(lam=0.3, delta=0.3, mu=0.3), **rates)
        sv = mixed_state(net, np.random.default_rng(40))
        a_counts, b_counts = spmv_counts(net, sv)
        expected = np.zeros((n, 6))
        for i in np.flatnonzero(~sv.omega):
            state = ("SIR"[sv.disease[i]], bool(sv.aware[i]))
            for (d, aw), p in _node_transition(state, a_counts[i], b_counts[i], params).items():
                expected[i, 2 * _LABELS[d] + aw] = p
        trials = 4000
        hits = np.zeros((n, 6))
        rng = np.random.default_rng(41)
        for _ in range(trials):
            nxt = mc_step(sv, net, params, rng)
            assert not nxt.aware[sv.omega].any()
            hits[np.arange(n), 2 * nxt.disease + nxt.aware] += 1
        ordinary = ~sv.omega
        freq, p = hits[ordinary] / trials, expected[ordinary]
        assert np.allclose(p.sum(axis=1), 1.0)
        sure = (p == 0.0) | (p == 1.0)
        assert np.array_equal(freq[sure], p[sure])
        p, freq = p[~sure], freq[~sure]
        # Every tested outcome is expected at least 10 times each way, so the
        # normal approximation holds; Bonferroni over all tested pairs.
        assert (trials * p * (1 - p)).min() >= 10
        z = np.abs(freq - p) / np.sqrt(p * (1 - p) / trials)
        assert z.max() < norm.isf(self.ALPHA / (2 * len(p)))

    @pytest.mark.parametrize(
        "rates",
        [dict(lam=0.5, beta_u=0.3), dict(lam=0.9, beta_u=0.5, gamma=0.2),
         dict(lam=1.0, beta_u=0.4, gamma=0.0)],
    )
    def test_runs_match_dense_step_in_distribution(self, rates):
        net = small_net(150, seed=8)
        params = default_params(delta=0.2, mu=0.2, initial_infected_fraction=0.02, **rates)
        samples = [
            np.array([run_summary(step, net, [1, 2, 3, 4, 5], params, rng) for _ in range(300)])
            for step, rng in ((mc_step, np.random.default_rng((71, 0))),
                              (dense_step, np.random.default_rng((71, 1))))
        ]
        # Final rho_R, absorption step and tail rho_A, one two-sample KS test each.
        for column in range(3):
            assert ks_2samp(samples[0][:, column], samples[1][:, column]).pvalue > self.ALPHA
