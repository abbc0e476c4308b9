"""Acceptance suite: one test per numbered criterion, each printing a single
PASS/FAIL line (run with -s to see them on success).

Criteria 6 and 7 each contain one sub-condition that the specified model
cannot satisfy at the stated parameters; those assertions are implemented
faithfully and are expected to fail.
"""

import json
import time

import numpy as np
import pytest

from muxepi import (
    DynamicsParams,
    Graph,
    OmegaSpec,
    betweenness,
    build_multiplex,
    epidemic_threshold,
    generate_ba,
    generate_ws,
    init_mmca,
    leading_eigenvalue,
    mmca_run,
    mmca_step,
    run_to_absorption,
    select_omega,
)
from muxepi.cli import main as cli_main
from muxepi.experiments import (
    ExperimentSpec,
    heatmap_experiment,
    omega_ratio_sweep,
    replication_multiplex,
    replication_omega,
    timeseries_experiment,
)
from oracles import brute_force_betweenness, dense_spectral_radius, random_graph

pytestmark = pytest.mark.acceptance


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def default_params(**kwargs):
    base = dict(lam=0.5, delta=0.04, beta_u=0.3, gamma=0.5, mu=0.06)
    base.update(kwargs)
    return DynamicsParams(**base)


def mmca_rho_r(spec, cells):
    """MMCA rho_R for each (omega spec, lambda, beta_u) cell on MC replication
    0's multiplex, with the silenced set replication 0 runs on; only printed
    next to MC."""
    net = replication_multiplex(spec.n, spec.ba_m, spec.ws_k, spec.ws_p, spec.master_seed, rep=0)
    return [
        mmca_run(
            net,
            replication_omega(omega, net.awareness_layer, spec.master_seed, rep=0),
            spec.params(lam, beta),
        ).rho()["rho_r"]
        for omega, lam, beta in cells
    ]


def test_criterion_1_threshold_closed_form():
    started = time.monotonic()
    n = 2000
    net = build_multiplex(generate_ba(n, 4, seed=1), generate_ws(n, 4, 0.0, seed=2))
    res = epidemic_threshold(net, default_params(gamma=1.0))
    elapsed = time.monotonic() - started
    err = abs(res.beta_c - 0.015)
    ok = err <= 1e-9 and elapsed < 1.0
    assert report(1, ok, f"beta_c={res.beta_c!r} |err|={err:.2e} in {elapsed:.2f}s")


def test_criterion_2_spectral_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        m = rng.random((20, 20))
        got = leading_eigenvalue(m, tol=1e-13)
        worst = max(worst, abs(got - dense_spectral_radius(m)))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-8 and elapsed < 1.0
    assert report(2, ok, f"50 matrices, worst |err|={worst:.2e} in {elapsed:.2f}s")


def test_criterion_3_betweenness_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(50):
        n = int(rng.integers(5, 65))
        g = Graph(n, random_graph(n, 0.1, rng))
        mismatches += betweenness(g, exact=True) != brute_force_betweenness(g)
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 10.0
    assert report(3, ok, f"50 graphs (n<=64), {mismatches} mismatches in {elapsed:.1f}s")


def test_criterion_4_mmca_conservation():
    started = time.monotonic()
    n = 500
    net = build_multiplex(generate_ba(n, 4, seed=3), generate_ws(n, 4, 0.1, seed=4))
    params = default_params()
    state = init_mmca(net, range(0, n, 9), params)
    worst = 0.0
    for _ in range(10_000):
        state = mmca_step(state, net, params)
        worst = max(worst, float(np.abs(state.component_sums() - 1.0).max()))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-12 and elapsed < 30.0
    assert report(4, ok, f"worst |sum-1|={worst:.2e} over 1e4 steps in {elapsed:.1f}s")


def test_criterion_5_mmca_mc_agreement():
    started = time.monotonic()
    n = 1000
    net = build_multiplex(generate_ba(n, 4, seed=5), generate_ws(n, 4, 0.1, seed=6))
    omega_set = select_omega(OmegaSpec(strategy="random", count=2),
                             net.awareness_layer, seed=0)
    # Grid frozen away from the threshold (beta_c ~ 0.026 here, so every
    # beta is outside the +/-20% exclusion band).
    worst = 0.0
    rng = np.random.default_rng(50)
    for lam in (0.2, 0.5, 0.8):
        for beta in (0.01, 0.3, 0.8):
            params = default_params(lam=lam, beta_u=beta,
                                    initial_infected_fraction=0.01)
            mmca_final = mmca_run(net, omega_set, params).rho()["rho_r"]
            finals = [
                run_to_absorption(net, omega_set, params, rng).final_rho_r
                for _ in range(100)
            ]
            worst = max(worst, abs(mmca_final - float(np.mean(finals))))
    elapsed = time.monotonic() - started
    ok = worst <= 0.05 and elapsed < 600.0
    assert report(5, ok, f"9 points x 100 reps, worst |diff|={worst:.4f} in {elapsed:.0f}s")


def test_criterion_6_onset_and_suppression():
    started = time.monotonic()
    spec = ExperimentSpec(
        n=2000,
        lambdas=(0.1, 0.5, 0.9),
        betas=(0.05, 0.3, 0.9),
        omega=OmegaSpec(strategy="random", count=20),
        replications=10,
        master_seed=0,
    )
    res = heatmap_experiment(spec)
    low = res.mean_rho_r[1, 0]  # lambda=0.5, beta=0.05
    high = res.mean_rho_r[1, 1]  # lambda=0.5, beta=0.3
    suppression = res.mean_rho_r[0, 2] - res.mean_rho_r[2, 2]  # (0.1,0.9)-(0.9,0.9)
    elapsed = time.monotonic() - started
    ok_a = low < 0.02 and high > 0.3
    ok_b = suppression >= 0.1
    ok = ok_a and ok_b and elapsed < 600.0
    mmca_low_l, mmca_high_l = mmca_rho_r(spec, [(spec.omega, 0.1, 0.9), (spec.omega, 0.9, 0.9)])
    report(
        6,
        ok,
        f"(a) onset {'ok' if ok_a else 'violated'}: rho_R(beta=0.05)={low:.4f}, "
        f"rho_R(beta=0.3)={high:.3f}; (b) suppression {'ok' if ok_b else 'violated'}: "
        f"rho_R(l=0.1)-rho_R(l=0.9) at beta=0.9 = {suppression:.4f} (need >=0.1), "
        f"MC rho_R {res.mean_rho_r[0, 2]:.4f} vs MMCA {mmca_low_l:.4f} at l=0.1, "
        f"MC {res.mean_rho_r[2, 2]:.4f} vs MMCA {mmca_high_l:.4f} at l=0.9; {elapsed:.0f}s",
    )
    assert ok_a
    assert ok_b


@pytest.fixture(scope="module")
def silenced_hub_timeseries():
    """N=10000 runs shared by criteria 7 and 9: degree_top silenced set at
    three infection rates, degree_bottom at the highest one."""
    spec_top = ExperimentSpec(
        n=10000,
        lambdas=(0.5,),
        betas=(0.2, 0.5, 0.8),
        omega=OmegaSpec(strategy="degree_top", count=20),
        replications=10,
        master_seed=0,
    )
    top = timeseries_experiment(spec_top)
    spec_bottom = ExperimentSpec(
        n=10000,
        lambdas=(0.5,),
        betas=(0.8,),
        omega=OmegaSpec(strategy="degree_bottom", count=20),
        replications=10,
        master_seed=0,
    )
    bottom = timeseries_experiment(spec_bottom)
    return top, bottom


def test_criterion_7_silenced_hub_contrast(silenced_hub_timeseries):
    top, bottom = silenced_hub_timeseries
    top_final = float(top.mean_rho_r[0, 2])  # beta_u = 0.8
    bottom_final = float(bottom.mean_rho_r[0, 0])
    top_plateau = float(np.mean([r.plateau_step for r in top.runs[2]]))
    bottom_plateau = float(np.mean([r.plateau_step for r in bottom.runs[0]]))
    ok_finals = top_final >= 0.8 and bottom_final <= 0.45
    ok_plateaus = top_plateau < 120 and bottom_plateau > 150
    ok = ok_finals and ok_plateaus
    mmca_top, mmca_bottom = mmca_rho_r(
        top.spec, [(top.spec.omega, 0.5, 0.8), (bottom.spec.omega, 0.5, 0.8)]
    )
    report(
        7,
        ok,
        f"final rho_R: degree_top={top_final:.3f} (need >=0.8; MMCA {mmca_top:.4f}), "
        f"degree_bottom={bottom_final:.3f} (need <=0.45; MMCA {mmca_bottom:.4f}); plateau steps: "
        f"degree_top={top_plateau:.0f} (need <120), "
        f"degree_bottom={bottom_plateau:.0f} (need >150)",
    )
    assert top_final >= 0.8
    assert top_plateau < 120
    assert bottom_final <= 0.45
    assert bottom_plateau > 150


def test_criterion_8_silenced_fraction_sweep():
    started = time.monotonic()
    spec = ExperimentSpec(
        n=10000,
        lambdas=(0.3,),
        betas=(0.2,),
        gamma=0.4,  # beta_a = 0.08
        omega=OmegaSpec(strategy="random", count=20),
        replications=10,
        master_seed=0,
    )
    fractions = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    res = omega_ratio_sweep(spec, ("degree_top", "random", "degree_bottom"), fractions)
    top = res.curve("degree_top")
    rand = res.curve("random")
    bottom = res.curve("degree_bottom")
    gap_tr = float((rand - top).max())
    gap_rb = float((bottom - rand).max())
    ordering_ok = gap_tr <= 0.03 and gap_rb <= 0.03
    x = np.asarray(fractions)
    fit = np.polyval(np.polyfit(x, bottom, 1), x)
    ss_res = float(((bottom - fit) ** 2).sum())
    ss_tot = float(((bottom - bottom.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    elapsed = time.monotonic() - started
    ok = ordering_ok and r2 >= 0.9 and elapsed < 1800.0
    report(
        8,
        ok,
        f"ordering slack: random-top={gap_tr:.4f}, bottom-random={gap_rb:.4f} "
        f"(need <=0.03); degree_bottom linear R^2={r2:.3f} (need >=0.9); {elapsed:.0f}s",
    )
    assert ordering_ok
    assert r2 >= 0.9


def test_criterion_9_awareness_plateau_independence(silenced_hub_timeseries):
    top, _ = silenced_hub_timeseries
    tails = {
        beta: float(np.mean([r.tail_rho_a for r in top.runs[j]]))
        for j, beta in enumerate(top.cols)
    }
    spread = max(tails.values()) - min(tails.values())
    ok = spread <= 0.05
    detail = ", ".join(f"beta={b}: {v:.4f}" for b, v in tails.items())
    assert report(9, ok, f"tail rho_A {detail}; spread={spread:.4f} (need <=0.05)")


def test_criterion_10_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "n = 500\nreplications = 3\ninitial_infected_fraction = 0.01\n"
        "[heatmap]\nlambdas = 0.5\nbetas = 0.1, 0.4\n"
    )
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc = cli_main(["heatmap", "--config", str(cfg), "--out", str(out), "--seed", "9"])
        assert rc == 0
        blobs.append((out / "heatmap.csv").read_bytes())
    identical = blobs[0] == blobs[1]
    manifest = json.loads((tmp_path / "r2" / "manifest.json").read_text())
    ok = identical and manifest["status"] == "ok"
    assert report(10, ok, f"heatmap re-run byte-identical={identical}")
