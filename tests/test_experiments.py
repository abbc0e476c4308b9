import json

import numpy as np
import pytest

from muxepi import (
    ExperimentSpec,
    InvalidArgumentError,
    OmegaSpec,
    average_replications,
    heatmap_experiment,
    omega_ratio_sweep,
    read_edge_list,
    timeseries_experiment,
)
from muxepi import dynamics, experiments, graph
from muxepi.cli import main
from muxepi.dynamics import I, mc_step
from muxepi.experiments import plateau_step
from muxepi.selection import select_omega


def small_spec(**kwargs):
    base = dict(
        n=200,
        ba_m=4,
        ws_k=4,
        ws_p=0.1,
        lambdas=(0.5,),
        betas=(0.3,),
        initial_infected_fraction=0.01,
        omega=OmegaSpec(strategy="random", count=4),
        replications=3,
        master_seed=7,
    )
    base.update(kwargs)
    return ExperimentSpec(**base)


class TestAverageReplications:
    def test_mean_and_sample_std(self):
        mean, std = average_replications([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert std == pytest.approx(1.0)

    def test_single_value(self):
        assert average_replications([0.4]) == (0.4, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            average_replications([])


class TestPlateauStep:
    def test_monotone_curve(self):
        rho = np.array([0.0, 0.1, 0.3, 0.55, 0.595, 0.6])
        assert plateau_step(rho, tol=0.01) == 4

    def test_constant_curve(self):
        assert plateau_step(np.full(5, 0.2)) == 0

    def test_tolerance_widens(self):
        rho = np.array([0.0, 0.5, 0.9, 1.0])
        assert plateau_step(rho, tol=0.15) == 2


class TestValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidArgumentError):
            small_spec(betas=())

    def test_out_of_range_rate_rejected(self):
        with pytest.raises(InvalidArgumentError):
            small_spec(lambdas=(1.5,))

    def test_bad_sweep_fraction_rejected(self):
        with pytest.raises(InvalidArgumentError):
            omega_ratio_sweep(small_spec(), ["random"], [0.0, 1.5])

    @pytest.mark.parametrize("key", ["lambdas", "betas"])
    def test_repeated_grid_entry_rejected(self, key):
        with pytest.raises(InvalidArgumentError, match=key):
            small_spec(**{key: (0.3, 0.1, 0.3)})

    @pytest.mark.parametrize(
        "strategies, fractions, key",
        [
            (["random", "random"], [0.1], "strategies"),
            (["random"], [0.1, 0.1], "fractions"),
            (["degree_top"], [0, 0.0], "fractions"),  # 0 and 0.0 both write 0.0
        ],
    )
    def test_repeated_sweep_entry_rejected(self, strategies, fractions, key):
        with pytest.raises(InvalidArgumentError, match=key):
            omega_ratio_sweep(small_spec(), strategies, fractions)

    @pytest.mark.parametrize(
        "experiment, axis",
        [
            (timeseries_experiment, {"lambdas": (0.2, 0.9)}),
            (lambda spec: omega_ratio_sweep(spec, ["random"], [0.1]), {"lambdas": (0.2, 0.9)}),
            (lambda spec: omega_ratio_sweep(spec, ["random"], [0.1]), {"betas": (0.1, 0.4)}),
        ],
        ids=["timeseries-lambdas", "sweep-lambdas", "sweep-betas"],
    )
    def test_axis_entry_the_experiment_would_drop_rejected(self, experiment, axis):
        # Only the first entry would run, under a header that lists them all.
        [key] = axis
        with pytest.raises(InvalidArgumentError, match=key):
            experiment(small_spec(n=60, replications=1, **axis))


class TestHeatmap:
    def test_zero_beta_column_is_exact_seed_fraction(self):
        # With beta_u = 0 the disease never spreads: the only recovered
        # nodes are the ceil(n*f) initial seeds, identically per replication.
        spec = small_spec(betas=(0.0, 0.5))
        res = heatmap_experiment(spec)
        assert res.mean_rho_r[0, 0] == 2 / 200
        assert res.std_rho_r[0, 0] == 0.0
        assert res.mean_rho_r[0, 1] > res.mean_rho_r[0, 0]
        assert res.non_absorbed == 0

    def test_grid_shape(self):
        res = heatmap_experiment(small_spec(lambdas=(0.2, 0.8), betas=(0.0, 0.3, 0.6)))
        assert res.mean_rho_r.shape == (2, 3)

    def test_monotone_in_beta(self):
        spec = small_spec(betas=(0.05, 0.3, 0.8), replications=5)
        res = heatmap_experiment(spec)
        row = res.mean_rho_r[0]
        assert row[1] > row[0] - 0.03
        assert row[2] > row[1] - 0.03

    def test_reproducible_and_worker_independent(self, tmp_path):
        spec = small_spec()
        drivers = {
            "heatmap": lambda jobs: heatmap_experiment(spec, jobs=jobs),
            "timeseries": lambda jobs: timeseries_experiment(
                small_spec(betas=(0.2, 0.6)), jobs=jobs
            ),
            "sweep": lambda jobs: omega_ratio_sweep(
                spec, ["random", "degree_top"], [0.0, 0.2], jobs=jobs
            ),
        }
        for name, driver in drivers.items():
            paths = []
            for i, jobs in enumerate((1, 1, 2)):
                p = tmp_path / f"{name}{i}.csv"
                driver(jobs).write_csv(p)
                paths.append(p.read_bytes())
            assert paths[0] == paths[1] == paths[2], name

    def test_pool_never_exceeds_task_count(self, monkeypatch):
        # A fork pool starts all its workers at the first submit, so --jobs
        # above the task count would fork idle processes.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        # _run_grid imports the pool class only when it uses one.
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        spec = small_spec(n=60, betas=(0.3, 0.6), replications=3)
        pooled = heatmap_experiment(spec, jobs=32)
        assert sizes == [3]
        assert np.array_equal(pooled.mean_rho_r, heatmap_experiment(spec, jobs=1).mean_rho_r)

    def test_csv_format(self, tmp_path):
        spec = small_spec()
        res = heatmap_experiment(spec)
        p = tmp_path / "hm.csv"
        res.write_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0].startswith("# muxepi v") and "spec=" in lines[0]
        assert lines[1] == "lambda,beta_u,mean_rho_r,std_rho_r,replications"
        assert len(lines) == 2 + 1  # one grid cell
        fields = lines[2].split(",")
        assert [float(x) for x in fields[:4]] and int(fields[4]) == 3


class TestGridResult:
    """One result type for the heatmap and the sweep, with the old CSV bytes."""

    def test_linspace_axes_write_plain_float_reprs(self, tmp_path):
        # The CLI's default heatmap axes are numpy float64 values.
        axis = tuple(np.linspace(0.0, 1.0, 21))
        finals = np.random.default_rng(3).random((21 * 21, 3))
        runs = [tuple(experiments.RunRecord(f, True, 0.0, 0, None) for f in cell) for cell in finals]
        res = experiments.GridResult(
            small_spec(), "lambda,beta_u,mean_rho_r,std_rho_r", axis, axis, runs
        )
        mean, std = res.mean_rho_r, res.std_rho_r
        assert mean[2, 5] == np.mean(finals[2 * 21 + 5])
        assert std[2, 5] == np.std(finals[2 * 21 + 5], ddof=1)
        res.write_csv(tmp_path / "hm.csv")
        rows = (tmp_path / "hm.csv").read_text().splitlines()[2:]
        assert rows == [
            f"{float(lam)!r},{float(beta)!r},{float(mean[i, j])!r},{float(std[i, j])!r},3"
            for i, lam in enumerate(axis)
            for j, beta in enumerate(axis)
        ]
        assert rows[1].startswith("0.0,0.05,")

    def test_int_fraction_written_as_float(self, tmp_path):
        res = omega_ratio_sweep(small_spec(replications=1), ["random"], [0, 0.1])
        res.write_csv(tmp_path / "sw.csv")
        rows = (tmp_path / "sw.csv").read_text().splitlines()[2:]
        assert [r.split(",")[:2] for r in rows] == [["random", "0.0"], ["random", "0.1"]]

    def test_heatmap_curve_is_a_lambda_row(self):
        res = heatmap_experiment(small_spec(n=60, lambdas=(0.2, 0.8), betas=(0.1, 0.4, 0.7)))
        assert np.array_equal(res.curve(0.8), res.mean_rho_r[1])
        assert np.array_equal(res.curve(0.2), res.mean_rho_r[0])


class TestTailSkip:
    """rho_R is fixed at absorption, so only timeseries runs the tail."""

    @pytest.fixture
    def step_calls(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(mc_step(*args))
            return calls[-1]

        monkeypatch.setattr(dynamics, "mc_step", counted)
        return calls

    def test_tail_window_changes_only_the_spec_line(self, tmp_path):
        drivers = {
            "heatmap": heatmap_experiment,
            "sweep": lambda spec: omega_ratio_sweep(spec, ["random", "degree_top"], [0.0, 0.2]),
        }
        betas = {"heatmap": (0.1, 0.4), "sweep": (0.1,)}
        for name, driver in drivers.items():
            blobs = []
            for tail in (0, 100):
                p = tmp_path / f"{name}{tail}.csv"
                driver(small_spec(betas=betas[name], tail_window=tail)).write_csv(p)
                blobs.append(p.read_text().splitlines())
            assert blobs[0][0] != blobs[1][0], name
            assert blobs[0][1:] == blobs[1][1:], name

    @pytest.mark.parametrize("kind", [experiments._KIND_HEATMAP, experiments._KIND_SWEEP])
    def test_heatmap_and_sweep_stop_at_absorption(self, step_calls, kind):
        spec = small_spec()
        [out] = experiments._run_task((spec, kind, 0, [(spec.omega, 0.5, 0.3)]))
        infected = [sv.tallies[I] for sv in step_calls]
        assert out.absorbed and len(step_calls) > 0
        assert infected[-1] == 0 and all(infected[:-1])  # the last step is the absorbing one

    def test_timeseries_keeps_the_tail(self, step_calls):
        spec = small_spec(tail_window=37)
        kind = experiments._KIND_TIMESERIES
        [record] = experiments._run_task((spec, kind, 0, [(spec.omega, 0.5, 0.3)]))
        assert record.absorbed
        absorption_step = [sv.tallies[I] for sv in step_calls].index(0) + 1
        assert len(step_calls) == absorption_step + 37
        assert record.curves.shape == (absorption_step + 1 + 37, 2)


class TestRecordReplay:
    """A record is the run `run_to_absorption` gives on its replication's
    multiplex and silenced set, drawing from spawn key (kind, cell, rep, 3)."""

    @pytest.mark.parametrize(
        "kind",
        [experiments._KIND_HEATMAP, experiments._KIND_TIMESERIES, experiments._KIND_SWEEP],
    )
    def test_record_equals_a_direct_run(self, kind):
        spec = small_spec(n=100, tail_window=20)
        cells = [(spec.omega, 0.5, 0.3), (OmegaSpec(strategy="degree_top", fraction=0.1), 0.8, 0.6)]
        cell, rep = 1, 2
        record = experiments._run_task((spec, kind, rep, cells))[cell]

        omega, lam, beta_u = cells[cell]
        net = experiments.replication_multiplex(
            spec.n, spec.ba_m, spec.ws_k, spec.ws_p, spec.master_seed, rep
        )
        omega_set = experiments.replication_omega(omega, net.awareness_layer, spec.master_seed, rep)
        seed = np.random.SeedSequence(spec.master_seed, spawn_key=(kind, cell, rep, 3))
        timeseries = kind == experiments._KIND_TIMESERIES
        traj = dynamics.run_to_absorption(
            net,
            omega_set,
            spec.params(lam, beta_u),
            np.random.default_rng(seed),
            tail_window=spec.tail_window if timeseries else 0,
        )
        assert record.final_rho_r == traj.final_rho_r
        assert record.absorbed == traj.absorbed
        assert record.tail_rho_a == traj.mean_tail_rho_a
        assert record.plateau_step == plateau_step(traj.steps[:, dynamics.R])
        if timeseries:
            assert np.array_equal(record.curves, traj.steps[:, [dynamics.R, dynamics.A]])
        else:
            assert record.curves is None


class TestSharedNetworks:
    """A replication builds one multiplex and one random silenced set for all its cells."""

    @pytest.fixture
    def runs(self, monkeypatch):
        calls = []

        def recorded(net, omega_set, *args, **kwargs):
            calls.append((net, omega_set))
            return dynamics.run_to_absorption(net, omega_set, *args, **kwargs)

        monkeypatch.setattr(experiments, "run_to_absorption", recorded)
        return calls

    def test_one_network_build_per_replication(self, monkeypatch):
        builds, real = [], experiments.generate_ba

        def counted(*args, **kwargs):
            builds.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "generate_ba", counted)
        heatmap_experiment(small_spec(n=60, lambdas=(0.2, 0.8), betas=(0.1, 0.4, 0.7)))
        assert len(builds) == 3

    def test_every_cell_of_a_replication_shares_network_and_random_set(self, runs):
        heatmap_experiment(small_spec(n=60, lambdas=(0.2, 0.8), betas=(0.1, 0.4, 0.7)))
        assert len(runs) == 3 * 6
        by_rep = [runs[i : i + 6] for i in range(0, len(runs), 6)]
        for rep_runs in by_rep:
            net, omega_set = rep_runs[0]
            assert len(omega_set) == 4
            for other_net, other_set in rep_runs[1:]:
                assert other_net is net
                assert np.array_equal(other_set, omega_set)
        assert not np.array_equal(by_rep[0][0][1], by_rep[1][0][1])
        assert by_rep[0][0][0].awareness_layer != by_rep[1][0][0].awareness_layer

    def test_replication_zero_is_the_generated_multiplex(self, runs, tmp_path):
        argv = ["generate", "--seed", "7", "--jobs", "1", "--set", "n=200", "--out", str(tmp_path)]
        assert main(argv) == 0
        heatmap_experiment(small_spec(replications=2))
        (net, _), (other, _) = runs
        assert net.awareness_layer == read_edge_list(tmp_path / "awareness.edges")
        assert net.contact_layer == read_edge_list(tmp_path / "contact.edges")
        assert other.awareness_layer != net.awareness_layer

    @pytest.mark.parametrize("subcommand", ["threshold", "mmca"])
    def test_mmca_inputs_silence_replication_zeros_random_set(self, runs, subcommand, tmp_path):
        heatmap_experiment(small_spec(replications=1))
        [(_, omega_set)] = runs
        argv = [subcommand, "--seed", "7", "--set", "n=200", "--set", "omega_count=4"]
        assert main(argv + ["--set", "omega_strategy=random", "--out", str(tmp_path)]) == 0
        written = [int(line) for line in (tmp_path / "omega.txt").read_text().split()]
        assert written == omega_set.tolist()


class TestHeader:
    def test_omega_has_no_seed(self, tmp_path):
        spec = small_spec(n=60, replications=1)
        results = (
            heatmap_experiment(spec),
            timeseries_experiment(spec),
            omega_ratio_sweep(spec, ["random"], [0.1]),
        )
        for res in results:
            p = tmp_path / "out.csv"
            res.write_csv(p)
            header = json.loads(p.read_text().splitlines()[0].split("spec=", 1)[1])
            assert header["omega"] == {"count": 4, "fraction": None, "strategy": "random"}


class TestTimeseries:
    def test_curves_and_summaries(self):
        spec = small_spec(betas=(0.2, 0.6))
        res = timeseries_experiment(spec)
        assert res.mean_rho_r.shape == (1, 2)
        for j in range(2):
            records = res.runs[j]
            assert len(records) == 3
            curves = res.mean_curves(j)
            assert curves.shape[1] == 2
            # rho_R(t) is non-decreasing in each replication mean.
            rr = curves[:, 0]
            assert (np.diff(rr) >= -1e-12).all()
            assert res.mean_rho_r[0, j] == np.mean([r.curves[-1, 0] for r in records])
            assert all(0 <= r.plateau_step < len(r.curves) for r in records)
            assert all(0.0 <= r.tail_rho_a <= 1.0 for r in records)

    def test_csv_format(self, tmp_path):
        spec = small_spec()
        res = timeseries_experiment(spec)
        p = tmp_path / "ts.csv"
        res.write_csv(p)
        lines = p.read_text().splitlines()
        assert lines[1] == "beta_u,step,rho_R,rho_A,replications"
        assert len(lines) == 2 + len(res.mean_curves(0))
        assert all(float(x) is not None for x in lines[2].split(","))

    def test_header_grid_is_the_rows_grid(self, tmp_path):
        spec = small_spec(lambdas=(0.9,), betas=(0.2, 0.6), replications=1)
        res = timeseries_experiment(spec)
        assert res.spec.lambdas[0] == 0.9
        p = tmp_path / "ts.csv"
        res.write_csv(p)
        lines = p.read_text().splitlines()
        header = json.loads(lines[0].split("spec=", 1)[1])
        row_betas = list(dict.fromkeys(float(line.split(",")[0]) for line in lines[2:]))
        assert header["lambdas"] == [0.9]
        assert header["betas"] == row_betas == [0.2, 0.6]


class TestSweep:
    def test_strategies_coincide_at_extreme_fractions(self):
        # fraction 0 silences nobody and fraction 1 silences everybody, so
        # the model is identical across strategies there; each cell still
        # draws its own seeds, so agreement is within Monte-Carlo noise.
        spec = small_spec(n=500, replications=6)
        res = omega_ratio_sweep(spec, ["random", "degree_top", "degree_bottom"], [0.0, 1.0])
        for frac in (0.0, 1.0):
            vals = res.mean_rho_r[:, res.cols.index(frac)]
            assert max(vals) - min(vals) < 0.05

    def test_curve_accessor(self):
        spec = small_spec()
        res = omega_ratio_sweep(spec, ["degree_top"], [0.0, 0.2])
        curve = res.curve("degree_top")
        assert curve.shape == (2,)
        assert curve[0] == res.mean_rho_r[res.rows.index("degree_top"), res.cols.index(0.0)]

    def test_reproducible(self, tmp_path):
        spec = small_spec()
        blobs = []
        for i in range(2):
            res = omega_ratio_sweep(spec, ["random", "degree_top"], [0.0, 0.1])
            p = tmp_path / f"sw{i}.csv"
            res.write_csv(p)
            blobs.append(p.read_bytes())
        assert blobs[0] == blobs[1]

    def test_csv_format(self, tmp_path):
        spec = small_spec()
        res = omega_ratio_sweep(spec, ["random"], [0.1])
        p = tmp_path / "sw.csv"
        res.write_csv(p)
        lines = p.read_text().splitlines()
        assert lines[1] == "strategy,fraction,mean_rho_r,std_rho_r,replications"
        assert lines[2].startswith("random,0.1,")
        assert [float(x) for x in lines[2].split(",")[1:]]


class TestRankingCache:
    """A replication computes each centrality once, on its awareness layer, and
    every cell's set is cut from it by `select_omega`."""

    STRATEGIES = ["betweenness_top", "betweenness_bottom", "clustering_top"]
    FRACTIONS = [0.1, 0.2, 0.3]

    def count_calls(self, monkeypatch, *names):
        calls = dict.fromkeys(names, 0)
        for name in calls:

            def counted(g, name=name, real=getattr(graph, name)):
                calls[name] += 1
                return real(g)

            monkeypatch.setattr(graph, name, counted)
        return calls

    def test_one_centrality_call_per_replication(self, monkeypatch, tmp_path):
        calls = self.count_calls(monkeypatch, "betweenness", "clustering_coefficients")
        spec = small_spec(replications=2)
        blobs = []
        for jobs in (1, 2):
            res = omega_ratio_sweep(spec, self.STRATEGIES, self.FRACTIONS, jobs=jobs)
            if jobs == 1:
                assert calls == {"betweenness": 2, "clustering_coefficients": 2}
            res.write_csv(tmp_path / f"sweep{jobs}.csv")
            blobs.append((tmp_path / f"sweep{jobs}.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_zero_fraction_reads_no_centrality(self, monkeypatch):
        names = ("degree_sequence", "betweenness", "clustering_coefficients")
        calls = self.count_calls(monkeypatch, *names)
        strategies = ["degree_top", "betweenness_top", "clustering_bottom", "random"]
        omega_ratio_sweep(small_spec(replications=2), strategies, [0.0])
        assert calls == dict.fromkeys(names, 0)

    def test_sliced_orders_equal_select_omega(self, monkeypatch):
        runs = []

        def recorded(net, omega_set, *args, **kwargs):
            runs.append((net, omega_set))
            return dynamics.run_to_absorption(net, omega_set, *args, **kwargs)

        monkeypatch.setattr(experiments, "run_to_absorption", recorded)
        omega_ratio_sweep(small_spec(replications=2), self.STRATEGIES, [0.0] + self.FRACTIONS)
        cells = [(s, f) for s in self.STRATEGIES for f in [0.0] + self.FRACTIONS]
        assert len(runs) == 2 * len(cells)
        for (net, omega_set), (strategy, fraction) in zip(runs, cells * 2):
            expected = select_omega(OmegaSpec(strategy=strategy, fraction=fraction), net.awareness_layer)
            assert omega_set.tolist() == expected.tolist()
