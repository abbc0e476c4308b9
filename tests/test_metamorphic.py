"""Relations between runs: inputs that the model says cannot matter leave every
bit unchanged, and a run with every node at beta_a bounds the full model from below.

The pins run on replication 0 of `replication_multiplex(500, 4, 4, 0.1, 0)`.
"""

from dataclasses import replace

import numpy as np
import pytest

from muxepi import DynamicsParams, epidemic_threshold, mmca_run, run_to_absorption
from muxepi.experiments import replication_multiplex

N = 500
EVERY_NODE = range(N)
STORED = ("p_us", "p_as", "p_i", "p_ur", "p_ar")  # the arrays an MmcaState holds


@pytest.fixture(scope="module")
def net():
    return replication_multiplex(N, 4, 4, 0.1, 0)


def default_params(**kwargs):
    base = dict(lam=0.5, delta=0.04, beta_u=0.3, gamma=0.5, mu=0.06)
    return DynamicsParams(**{**base, **kwargs})


class TestEveryNodeSilenced:
    """No node is ever aware, so neither lambda nor gamma can act."""

    RATES = [dict(lam=0.1, gamma=0.2), dict(lam=0.9, gamma=0.9)]

    def test_mc_trajectory_ignores_lambda_and_gamma(self, net):
        # The awareness substep draws nothing, so both runs read the same stream.
        low, high = (run_to_absorption(net, EVERY_NODE, default_params(**r),
                                       np.random.default_rng(5)) for r in self.RATES)
        assert len(low.steps) == 232
        assert low.absorption_step == high.absorption_step
        assert low.steps.tobytes() == high.steps.tobytes()

    def test_mmca_fixed_point_ignores_lambda_and_gamma(self, net):
        low, high = (mmca_run(net, EVERY_NODE, default_params(**r)) for r in self.RATES)
        assert low.step == high.step == 302
        for name in STORED:
            assert getattr(low, name).tobytes() == getattr(high, name).tobytes(), name


class TestGammaOne:
    """At gamma = 1 awareness does not change infection, so beta_c is mu / Lambda_max(B)."""

    def test_threshold_ignores_lambda_delta_and_silencing(self, net):
        cases = [(default_params(lam=0.1, delta=0.04, gamma=1.0), ()),
                 (default_params(lam=0.9, delta=0.5, gamma=1.0), range(0, N, 3)),
                 (default_params(gamma=0.3), EVERY_NODE)]  # no node aware: H = B at any gamma
        beta_c = [epidemic_threshold(net, p, omega_set=omega).beta_c for p, omega in cases]
        assert beta_c == [0.01441556257262066] * 3

    def test_mmca_recovered_ignores_lambda(self, net):
        # Not bitwise: lambda moves each node's split between aware and unaware
        # states, and the sums of the two halves round differently.
        low, high = (mmca_run(net, (), default_params(lam=lam, gamma=1.0)) for lam in (0.1, 0.9))
        assert low.step == high.step
        assert abs(low.rho()["rho_r"] - high.rho()["rho_r"]) <= 1e-12


@pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
def test_every_node_at_beta_a_bounds_rho_r_from_below(net, lam):
    # Lowering a node's infection probability can only shrink an SIR outbreak
    # (Kenah & Robins, PRE 76, 036113, 2007), so the SIR run with every node
    # at beta_a ends with no more recovered than the full model, within noise.
    full = default_params(lam=lam, beta_u=0.15, gamma=0.4, initial_infected_fraction=0.01)
    bound = replace(full, beta_u=full.beta_a, gamma=1.0)
    omega = range(0, N, 10)
    finals = {}
    for name, p in (("full", full), ("bound", bound)):
        rng = np.random.default_rng(11)
        finals[name] = np.array([run_to_absorption(net, omega, p, rng, tail_window=0).final_rho_r
                                 for _ in range(30)])
    stderr = finals["bound"].std(ddof=1) / np.sqrt(len(finals["bound"]))
    assert finals["bound"].mean() <= finals["full"].mean() + stderr
