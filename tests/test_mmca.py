from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from muxepi import (
    DynamicsParams,
    Graph,
    InvalidArgumentError,
    MmcaState,
    MultiplexNetwork,
    NonConvergenceError,
    build_h_matrix,
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
from muxepi import mmca, write_edge_list
from muxepi.cli import main
from muxepi.mmca import COMPONENTS
from muxepi.selection import OmegaSpec, select_omega
from oracles import (
    _reference_neighbor_product,
    dense_spectral_radius,
    isolated_net,
    reference_mmca_run,
    reference_mmca_step,
    two_node_chain_marginals,
)

ALL_CERTAIN = {"lam": 1.0, "beta_u": 1.0, "delta": 1.0, "mu": 1.0, "gamma": 0.0}


def default_params(**kwargs):
    base = dict(lam=0.5, delta=0.04, beta_u=0.3, gamma=0.5, mu=0.06)
    base.update(kwargs)
    return DynamicsParams(**base)


def chain_net():
    g = Graph(2, [(0, 1)])
    return MultiplexNetwork(g, g)


def small_net(n=200, seed=0):
    return MultiplexNetwork(
        generate_ba(n, 4, seed=seed), generate_ws(n, 4, 0.1, seed=seed + 1)
    )


def ring_net(n=50):
    ring = generate_ws(n, 4, 0.0)
    return MultiplexNetwork(ring, ring)


def empty_net():
    return MultiplexNetwork(Graph(0, []), Graph(0, []))


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
        net = MultiplexNetwork(g, g)
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

    def test_init_components_do_not_share_memory(self):
        state = init_mmca(small_net(50), [3], default_params())
        stored = (state.p_us, state.p_as, state.p_i, state.p_ur, state.p_ar)
        for k, a in enumerate(stored):
            assert not any(np.shares_memory(a, b) for b in stored[k + 1:])

    @pytest.mark.parametrize(
        "rates",
        [
            {},
            {"lam": 1.0},
            {"beta_u": 1.0},
            {"gamma": 0.0},
            {"delta": 0.0},
            {"delta": 1.0},
            {"mu": 1.0},
            {"mu": 0.0},
            {"lam": 0.0},
            {"lam": 1.0, "beta_u": 1.0, "delta": 1.0, "mu": 1.0, "gamma": 0.0},
        ],
        ids=["default", "lam1", "beta_u1", "gamma0", "delta0", "delta1", "mu1", "mu0",
             "lam0", "all_certain"],
    )
    def test_bit_equal_to_six_component_reference(self, rates):
        # Silenced nodes take the general update with r = 1 and delta = 1; the
        # reference overrides their components on a branch of its own.
        net = small_net(300, seed=2)
        params = default_params(**rates)
        state = init_mmca(net, range(0, 300, 7), params)
        ref = {c: getattr(state, c) for c in COMPONENTS}
        for t in range(300):
            state = mmca_step(state, net, params)
            ref = reference_mmca_step(ref, state.omega, net, params)
            for c in COMPONENTS:
                got = getattr(state, c)
                assert np.array_equal(got, ref[c]), (t, c)
                assert np.array_equal(np.signbit(got), np.signbit(ref[c])), (t, c)

    @pytest.mark.parametrize("change", ["omega", "params", "net"])
    def test_carried_run_constants_follow_a_swapped_input(self, change):
        # A state carries its run's live matrix and delta; stepping it with
        # another omega array, params object or net must rebuild them.
        net = small_net(120, seed=3)
        params = default_params(delta=0.3)
        state = init_mmca(net, [], params)
        for _ in range(5):
            state = mmca_step(state, net, params)
        omega = np.zeros(120, dtype=bool)
        if change == "omega":
            omega[::7] = True
            state.p_us[omega] += state.p_as[omega]
            state.p_ur[omega] += state.p_ar[omega]
            state.p_as[omega] = state.p_ar[omega] = 0.0
            state = replace(state, omega=omega)
        elif change == "params":
            params = default_params(delta=0.9, lam=0.8)
        else:
            net = small_net(120, seed=4)
        got = mmca_step(state, net, params)
        want = mmca_step(replace(state, run=None), net, params)
        assert got.run[3] is not state.run[3]
        for c in COMPONENTS:
            assert_bit_equal(getattr(got, c), getattr(want, c), c)

    def test_empty_multiplex_steps_to_empty_arrays(self):
        net = empty_net()
        state = init_mmca(net, [], default_params())
        assert all(a.shape == (0,) for a in mmca_rates(state, net, default_params()))
        assert mmca_step(state, net, default_params()).p_i.shape == (0,)

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
        state.p_i[:] = [1.0, 0.0]
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


def assert_bit_equal(got, want, what):
    assert np.array_equal(got, want), what
    assert np.array_equal(np.signbit(got), np.signbit(want)), what


SILENCED = {
    "none": lambda n: [],
    "every_7th": lambda n: range(0, n, 7),
    "all": lambda n: range(n),
}


class TestLiveAwareness:
    """The awareness product runs over the adjacency without silenced rows and
    columns; it must equal the full-matrix product with r forced to 1."""

    @pytest.mark.parametrize("silenced", sorted(SILENCED))
    @pytest.mark.parametrize("certain", [False, True], ids=["positive", "zero_factors"])
    @pytest.mark.parametrize("seed", range(3))
    def test_rates_equal_masked_full_matrix(self, silenced, certain, seed):
        net = isolated_net()
        n = net.node_count
        rng = np.random.default_rng(seed)
        omega = np.zeros(n, dtype=bool)
        omega[list(SILENCED[silenced](n))] = True
        p_us, p_as, p_i, p_ur, p_ar = rng.dirichlet(np.ones(5), size=n).T.copy()
        p_as[omega] = p_ar[omega] = 0.0  # a silenced node holds no awareness
        params = default_params()
        if certain:
            # Factors of exactly 0 at lambda = beta_u = 1, on silenced nodes too.
            params = default_params(lam=1.0, beta_u=1.0, gamma=0.5)
            sure = rng.choice(n, n // 8, replace=False)
            p_i[sure] = 1.0
            p_as[sure] = p_ar[sure] = 0.0
        state = MmcaState(p_us=p_us, p_as=p_as, p_i=p_i, p_ur=p_ur, p_ar=p_ar, omega=omega)
        r, q_a, q_u = mmca_rates(state, net, params)
        a_mat, b_mat = net.awareness_layer.adjacency(), net.contact_layer.adjacency()
        full_r = _reference_neighbor_product(a_mat, 1.0 - params.lam * state.p_a)
        assert_bit_equal(r, np.where(omega, 1.0, full_r), "r")
        assert_bit_equal(q_a, _reference_neighbor_product(b_mat, 1.0 - params.beta_a * p_i), "q_a")
        assert_bit_equal(q_u, _reference_neighbor_product(b_mat, 1.0 - params.beta_u * p_i), "q_u")
        if certain:
            assert (q_u == 0.0).any()
            assert (r == 0.0).any() == (not omega.all())

    @pytest.mark.parametrize("silenced", sorted(SILENCED))
    @pytest.mark.parametrize("lam, init", [(0.5, 0.5), (1.0, 0.5), (1.0, 1.0)])
    def test_one_awareness_step_equals_masked_form(self, silenced, lam, init):
        net = isolated_net()
        n = net.node_count
        omega_set = list(SILENCED[silenced](n))
        params = default_params(lam=lam, delta=0.3)
        try:
            got = uau_steady_state(net, params, omega_set=omega_set, max_iter=1, init=init)
        except NonConvergenceError as exc:
            got = exc.last_iterate
        omega = np.zeros(n, dtype=bool)
        omega[omega_set] = True
        p = np.where(omega, 0.0, init)
        full_r = _reference_neighbor_product(net.awareness_layer.adjacency(), 1.0 - lam * p)
        r = np.where(omega, 1.0, full_r)
        delta = np.where(omega, 1.0, params.delta)
        assert_bit_equal(got, p * (1.0 - delta) + (1.0 - p) * (1.0 - r), "p_a")


class TestRun:
    @pytest.mark.parametrize("silenced", ["none", "every_7th", "degree_top"])
    @pytest.mark.parametrize("rates", [{}, ALL_CERTAIN], ids=["default", "all_certain"])
    def test_bit_equal_to_reference_run(self, silenced, rates):
        # At the all_certain rates (zero factors) awareness swings back and
        # forth each step and the run never converges: compare the iterate
        # it gives up on.
        net = small_net(300, seed=2)
        omega_set = {
            "none": [],
            "every_7th": range(0, 300, 7),
            "degree_top": select_omega(OmegaSpec("degree_top", count=30), net.awareness_layer),
        }[silenced]
        params = default_params(**rates)
        max_iter = 200 if rates else 100_000
        try:
            state = mmca_run(net, omega_set, params, max_iter=max_iter)
            residual = None
        except NonConvergenceError as exc:
            state, residual = exc.last_iterate, exc.residual
        ref, steps, change = reference_mmca_run(state.omega, net, params, max_iter=max_iter)
        assert state.step == steps
        assert residual == (None if change < 1e-9 else change)
        assert (residual is None) == (not rates)
        for c in COMPONENTS:
            assert_bit_equal(getattr(state, c), ref[c], c)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_rho_r_does_not_decrease_as_beta_u_grows_at_gamma_one(self, lam):
        # At gamma = 1 awareness leaves every infection probability at beta_u,
        # so a larger beta_u can only infect more. At the fixed point rho_R is
        # 1 - rho_S. A solve stops with infected mass of about 10 * tol still
        # on its way to R, more than neighbouring beta_u values differ in
        # rho_R near 1, while rho_S has settled; so rho_S must not rise.
        for seed in (0, 1):
            net = small_net(200, seed=seed)
            rho_s = [
                mmca_run(net, range(0, 200, 7), default_params(lam=lam, beta_u=b, gamma=1.0))
                .rho()["rho_s"]
                for b in np.linspace(0.0, 1.0, 11)
            ]
            assert (np.diff(rho_s) <= 0.0).all(), (seed, rho_s)

    def test_each_iteration_calls_the_public_step_and_rates(self, monkeypatch):
        # The benchmark tracer wraps the module-level names, so a run must
        # reach them once per iteration and not a private kernel behind them.
        calls = {"mmca_step": 0, "mmca_rates": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(mmca, "mmca_step", counted("mmca_step", mmca_step))
        monkeypatch.setattr(mmca, "mmca_rates", counted("mmca_rates", mmca_rates))
        state = mmca_run(small_net(), [3, 9], default_params())
        assert state.step > 1
        assert calls == {"mmca_step": state.step, "mmca_rates": state.step}

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

    def test_empty_multiplex_stops_after_one_step(self):
        # No component has an entry to move, so the first stop test passes.
        state = mmca_run(empty_net(), [], default_params())
        assert state.step == 1
        assert all(getattr(state, c).shape == (0,) for c in COMPONENTS)

    def test_empty_state_has_no_rho(self):
        # A mean over no node would be NaN, with numpy's empty-slice warning.
        for state in (init_mmca(empty_net(), [], default_params()),
                      mmca_run(empty_net(), [], default_params())):
            with pytest.raises(InvalidArgumentError, match="rho needs a state of at least one node"):
                state.rho()

    @pytest.mark.parametrize("tol, max_iter", [(0.0, 100), (1e-9, 0), (np.nan, 100), (np.inf, 100),
                                               (1.0, 100), (1e300, 100), (1e-9, np.nan)])
    def test_fixed_points_reject_unreachable_stop(self, tol, max_iter):
        # tol >= 1 would stop after one iteration: no probability moves by 1.
        net = small_net(60, seed=5)
        with pytest.raises(InvalidArgumentError, match="tol|max_iter"):
            mmca_run(net, [], default_params(), tol=tol, max_iter=max_iter)
        with pytest.raises(InvalidArgumentError, match="tol|max_iter"):
            uau_steady_state(net, default_params(), tol=tol, max_iter=max_iter)

    def test_nonconvergence_raises(self):
        net = small_net(60, seed=5)
        with pytest.raises(NonConvergenceError) as exc:
            mmca_run(net, [], default_params(), max_iter=3)
        assert isinstance(exc.value.last_iterate, MmcaState)


class TestInputsUnchanged:
    """A step builds new arrays: every array of the state it reads keeps its bits."""

    @staticmethod
    def silenced_run():
        net = small_net(200, seed=1)
        params = default_params(lam=0.8, beta_u=0.4)
        state = init_mmca(net, range(0, 200, 7), params)
        for _ in range(20):
            state = mmca_step(state, net, params)
        return net, params, state

    @staticmethod
    def read_arrays(state, net):
        stored = [getattr(state, c) for c in ("p_us", "p_as", "p_i", "p_ur", "p_ar", "omega")]
        return stored + [*state.run[4:], state.run[3].data, net.contact_layer.adjacency().data]

    def test_rates_and_step_leave_their_state(self):
        net, params, state = self.silenced_run()
        kept = [a.copy() for a in self.read_arrays(state, net)]
        mmca_rates(state, net, params)
        mmca_step(state, net, params)
        for k, (got, want) in enumerate(zip(self.read_arrays(state, net), kept)):
            assert_bit_equal(got, want, k)

    def test_silenced_mask_is_read_only(self):
        # The carried run constants are keyed on the mask's identity, so an edit
        # in place would leave them stale; a new mask must be a new array.
        state = init_mmca(small_net(), [3, 9], default_params())
        with pytest.raises(ValueError, match="read-only"):
            state.omega[0] = True

    def test_awareness_step_leaves_its_input(self, monkeypatch):
        net, params, state = self.silenced_run()
        calls = []

        def one_step(step, p, *_):
            kept = p.copy()
            step(p)
            calls.append((p, kept))
            return p

        monkeypatch.setattr(mmca, "_fixed_point", one_step)
        uau_steady_state(net, params, omega_set=np.flatnonzero(state.omega), init=0.3)
        [(p, kept)] = calls
        assert (p[state.omega] == 0.0).all() and (p[~state.omega] == 0.3).all()
        assert_bit_equal(p, kept, "p")


class TestFixedPointStop:
    """The stop test quits at the first array that still moves; the error
    reports the largest change over all of them."""

    @pytest.mark.parametrize("nan_at", [0, 1])
    def test_nan_change_keeps_iterating(self, nan_at):
        def arrays(k):
            pair = [np.zeros(3), np.zeros(3)]
            pair[nan_at][1] = np.nan
            return pair

        with pytest.raises(NonConvergenceError) as exc:
            mmca._fixed_point(lambda k: k + 1, 0, arrays, 1e-9, 5, "fake")
        assert exc.value.last_iterate == 5
        assert np.isnan(exc.value.residual)

    def test_residual_is_the_largest_change_over_all_arrays(self):
        # The first array still moves, which ends each stop test; the second moves most.
        def arrays(k):
            return np.array([0.0, 1e-3 * k]), np.array([0.25 * k, 0.0])

        with pytest.raises(NonConvergenceError) as exc:
            mmca._fixed_point(lambda k: k + 1, 0, arrays, 1e-9, 4, "fake")
        assert exc.value.last_iterate == 4
        assert exc.value.residual == 0.25


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

    def test_nonconvergence_raises(self):
        net = small_net()
        with pytest.raises(NonConvergenceError) as exc:
            uau_steady_state(net, default_params(), omega_set=[4, 8], max_iter=3)
        last = exc.value.last_iterate
        assert isinstance(last, np.ndarray) and last.shape == (net.node_count,)
        assert exc.value.residual > 0.0

    def test_silenced_pinned_to_zero(self):
        p = uau_steady_state(small_net(), default_params(), omega_set=[4, 8])
        assert p[4] == 0.0 and p[8] == 0.0
        others = np.delete(p, [4, 8])
        assert others.min() > 0.0

    def test_empty_multiplex_is_empty(self):
        assert uau_steady_state(empty_net(), default_params()).shape == (0,)

    @pytest.mark.parametrize("init", [np.nan, -0.1, 1.1])
    def test_rejects_init_outside_unit_interval(self, init):
        # Checked before the first iteration, not found by the iteration budget.
        with pytest.raises(InvalidArgumentError, match="init"):
            uau_steady_state(small_net(60, seed=5), default_params(), init=init)

    @pytest.mark.parametrize("init", [0.0, 1.0])
    def test_accepts_init_at_the_bounds(self, init):
        p = uau_steady_state(small_net(60, seed=5), default_params(), omega_set=[4, 8], init=init)
        # No one is aware from 0.0; from 1.0 every node but the two silenced ones stays aware.
        assert not np.signbit(p).any() and p[4] == 0.0 and p[8] == 0.0
        assert np.count_nonzero(p) == (0 if init == 0.0 else 58)


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

    def test_rows_scaled_bit_for_bit(self):
        g = generate_ws(200, 6, 0.3, seed=7)
        p_a = np.random.default_rng(3).random(200)
        f = 1.0 - (1.0 - 0.35) * p_a
        h = build_h_matrix(p_a, g, gamma=0.35)
        assert np.array_equal(h.toarray(), f[:, None] * g.adjacency().toarray())
        assert h.nnz == g.adjacency().nnz

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
        # sqrt(n-1) for a star, whose spectrum also holds -2: the largest
        # eigenvalue wins, with no shift.
        g = Graph(5, [(0, i) for i in range(1, 5)])
        assert leading_eigenvalue(g.adjacency()) == pytest.approx(2.0, abs=1e-6)
        assert leading_eigenvalue(g.adjacency().toarray()) == pytest.approx(2.0, abs=1e-6)

    def test_even_cycle_is_bipartite(self):
        assert leading_eigenvalue(generate_ws(1000, 2, 0.0).adjacency()) == pytest.approx(
            2.0, rel=1e-12
        )

    @pytest.mark.parametrize(
        "m", [np.zeros((2, 3)), sparse.csr_matrix((3, 2)), np.zeros((0, 0))],
        ids=["dense_2x3", "sparse_3x2", "empty"],
    )
    def test_rejects_non_square_or_empty(self, m):
        with pytest.raises(InvalidArgumentError, match="non-empty square matrix"):
            leading_eigenvalue(m)

    def test_sparse_must_be_symmetric(self):
        with pytest.raises(InvalidArgumentError, match="symmetric"):
            leading_eigenvalue(sparse.csr_matrix(np.triu(np.ones((4, 4)))))

    @pytest.mark.parametrize("tol, max_iter", [(0.0, 100), (1e-9, 0), (np.nan, 100), (np.inf, 100),
                                               (1.0, 100), (1e300, 100)])
    def test_rejects_unreachable_stop(self, tol, max_iter):
        with pytest.raises(InvalidArgumentError):
            leading_eigenvalue(generate_ws(40, 4, 0.1, seed=1).adjacency(), tol, max_iter)

    def test_too_few_steps_raise(self):
        with pytest.raises(NonConvergenceError) as exc:
            leading_eigenvalue(generate_ba(1000, 4, seed=3).adjacency(), max_iter=3)
        assert exc.value.residual > 0.0

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

    def test_matches_dense_symmetric_oracle(self):
        # H = D B with D = diag(1 - (1-gamma) p_a) shares its spectrum with the
        # symmetric D^1/2 B D^1/2, whose top eigenvalue dense eigvalsh gives.
        net = small_net(1000, seed=7)
        params = default_params(gamma=0.2)
        res = epidemic_threshold(net, params)
        d = np.sqrt(1.0 - 0.8 * res.p_a)
        sym = d[:, None] * net.contact_layer.adjacency().toarray() * d[None, :]
        expected = params.mu / np.linalg.eigvalsh(sym)[-1]
        assert res.beta_c == pytest.approx(expected, rel=1e-12)

    def test_requires_positive_mu(self):
        with pytest.raises(InvalidArgumentError):
            epidemic_threshold(ring_net(), default_params(mu=0.0))

    def test_empty_multiplex_has_no_threshold(self):
        with pytest.raises(InvalidArgumentError, match="need a non-empty square matrix"):
            epidemic_threshold(empty_net(), default_params())

    def test_frozen_reference_configuration(self):
        # Regression pin for the default parameter set on a 10000-node
        # network pair; value frozen from a validated run.
        net = MultiplexNetwork(
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
                p_i=np.full(net.node_count, eps),
                p_ur=np.zeros(net.node_count),
                p_ar=np.zeros(net.node_count),
                omega=np.zeros(net.node_count, dtype=bool),
            )
            masses = []
            for _ in range(60):
                state = mmca_step(state, net, params)
                masses.append(float(state.p_i.sum()))
            ratio = masses[-1] / masses[29]
            assert (ratio > 1.0) == grows


def node_csv(names, columns) -> str:
    """A `node,<names>` header, then one row per node of each column's float repr."""
    rows = zip(*(c.tolist() for c in columns))
    lines = [",".join(("node", *names))]
    lines += [f"{i},{','.join(map(repr, row))}" for i, row in enumerate(rows)]
    return "\n".join(lines) + "\n"


class TestCsvOutput:
    """The CLI's files hold the library's results, each float as its repr."""

    def run_on_ring(self, subcommand, tmp_path, *items):
        """`muxepi <subcommand>` with ring_net()'s ring as both layers; its output directory."""
        ring, out = tmp_path / "ring.edges", tmp_path / subcommand
        write_edge_list(ring_net().contact_layer, ring)
        argv = [subcommand, "--out", str(out),
                "--set", f"awareness_edges={ring}", "--set", f"contact_edges={ring}"]
        for item in items:
            argv += ["--set", item]
        assert main(argv) == 0
        return out

    def test_threshold_csv(self, tmp_path):
        out = self.run_on_ring("threshold", tmp_path, "gamma=1.0")
        res = epidemic_threshold(ring_net(), default_params(gamma=1.0))
        values = (1.0, 0.5, 0.04, 0.06, res.lambda_max, res.beta_c)
        assert (out / "threshold.csv").read_text() == (
            f"gamma,lambda,delta,mu,lambda_max_H,beta_c\n{','.join(map(repr, values))}\n")
        assert res.beta_c == pytest.approx(0.015)
        assert (out / "p_a.csv").read_text() == node_csv(("p_a",), (res.p_a,))

    def test_fixed_point_csv(self, tmp_path):
        out = self.run_on_ring("mmca", tmp_path, "beta_u=0.3")
        state = mmca_run(ring_net(), [], default_params())
        columns = [getattr(state, c) for c in COMPONENTS]
        assert (out / "mmca_states.csv").read_text() == node_csv(COMPONENTS, columns)
