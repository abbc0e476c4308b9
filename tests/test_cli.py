import json

import pytest

from muxepi import ConfigError, read_edge_list
from muxepi.cli import main, parse_config


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMALL = (
    "n = 150\n"
    "ba_m = 4\n"
    "ws_k = 4\n"
    "replications = 2\n"
    "initial_infected_fraction = 0.01\n"
)


class TestParseConfig:
    def test_defaults(self):
        config = parse_config(subcommand="threshold")
        assert config.get("mu") == 0.06
        assert config.get("delta") == 0.04
        assert config.get("n") == 10000
        assert config.get("ws_p") == 0.1
        assert config.seed == 0

    def test_rate_out_of_range(self, tmp_path):
        path = write_config(tmp_path, "beta_u = 1.5\n")
        with pytest.raises(ConfigError, match="beta_u"):
            parse_config(path, subcommand="threshold")

    def test_unknown_key_reports_line(self, tmp_path):
        path = write_config(tmp_path, "n = 100\nbogus_key = 3\n")
        with pytest.raises(ConfigError, match=":2"):
            parse_config(path, subcommand="threshold")

    def test_unknown_section(self, tmp_path):
        path = write_config(tmp_path, "[nonsense]\nn = 5\n")
        with pytest.raises(ConfigError, match="nonsense"):
            parse_config(path, subcommand="threshold")

    def test_subcommand_section_overrides_common(self, tmp_path):
        path = write_config(tmp_path, "mu = 0.1\n[threshold]\nmu = 0.2\n")
        config = parse_config(path, subcommand="threshold")
        assert config.get("mu") == 0.2
        other = parse_config(path, subcommand="mmca")
        assert other.get("mu") == 0.1

    def test_flag_overrides_file(self, tmp_path):
        path = write_config(tmp_path, "mu = 0.1\n")
        config = parse_config(path, overrides={"mu": "0.3"}, subcommand="threshold")
        assert config.get("mu") == 0.3

    def test_seed_precedence(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, "seed = 5\n")
        assert parse_config(path, subcommand="threshold", seed=9).seed == 9
        assert parse_config(path, subcommand="threshold").seed == 5
        monkeypatch.setenv("MUXEPI_SEED", "77")
        assert parse_config(subcommand="threshold").seed == 77

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_bad_env_seed_rejected(self, value, monkeypatch):
        monkeypatch.setenv("MUXEPI_SEED", value)
        with pytest.raises(ConfigError, match="MUXEPI_SEED"):
            parse_config(subcommand="threshold")

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs, tmp_path, capsys):
        with pytest.raises(ConfigError, match="--jobs"):
            parse_config(subcommand="heatmap", jobs=jobs)
        assert main(["heatmap", "--jobs", str(jobs), "--out", str(tmp_path)]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_missing_subcommand(self):
        with pytest.raises(ConfigError, match="subcommand"):
            parse_config()

    def test_list_parsing(self):
        config = parse_config(
            subcommand="sweep",
            overrides={"fractions": "0, 0.25, 0.5", "strategies": "random,degree_top"},
        )
        assert config.get("fractions") == (0.0, 0.25, 0.5)
        assert config.get("strategies") == ("random", "degree_top")


class TestMainErrors:
    def test_config_error_exit_code(self, capsys):
        assert main(["threshold", "--set", "mu=2.0"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_removed_fresh_networks_key_rejected(self, capsys):
        assert main(["heatmap", "--set", "fresh_networks=true"]) == 2
        assert "unknown key 'fresh_networks'" in capsys.readouterr().err

    def test_malformed_set_flag(self, capsys):
        assert main(["threshold", "--set", "mu"]) == 2

    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_malformed_edge_file_reported_without_traceback(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("# nodes=3\n0 1\n1 x\n")
        out = tmp_path / "thr"
        rc = main([
            "threshold", "--out", str(out),
            "--set", f"awareness_edges={bad}", "--set", f"contact_edges={bad}",
        ])
        assert rc == 2
        assert f"{bad}:3: expected 'i j'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["threshold", "--set", "beta_u=0.1", "--set", "beta_a=0.5"], "beta_a"),
            (["generate", "--set", "ws_k=5"], "k must be even"),
            (["threshold", "--set", "omega_count=61"], "count 61 exceeds 60"),
            (["heatmap", "--set", "replications=0", "--set", "betas=0.2"], "replications"),
            (["threshold", "--set", "tol=0"], "tol"),
            (["mmca", "--set", "tol=0"], "tol"),
            (["sweep", "--set", "tail_window=-3", "--set", "replications=1"], "tail_window"),
            (["threshold", "--seed", "-1"], "seed"),
            (["threshold", "--set", "awareness_edges=a.edges"], "contact_edges is missing"),
            (["threshold", "--set", "contact_edges=c.edges"], "awareness_edges is missing"),
            (["sweep", "--set", "strategies=random,random", "--set", "replications=1"],
             "strategies"),
            (["sweep", "--set", "fractions=0.1,0.1", "--set", "replications=1"], "fractions"),
            (["heatmap", "--set", "lambdas=0.5,0.5", "--set", "betas=0.2"], "lambdas"),
            (["timeseries", "--set", "betas=0.3,0.3", "--set", "replications=1"], "betas"),
            (["mmca", "--set", "replications=0"], "replications"),
            (["sweep", "--set", "strategies=", "--set", "replications=1"], "strategies is empty"),
            (["sweep", "--set", "fractions=", "--set", "replications=1"], "fractions is empty"),
        ],
        ids=["gamma_above_one", "odd_ws_k", "omega_count_above_n", "zero_replications",
             "zero_tol", "mmca_zero_tol", "negative_tail_window", "negative_seed",
             "awareness_edges_alone", "contact_edges_alone", "repeated_strategy",
             "repeated_fraction", "repeated_lambda", "repeated_beta", "mmca_zero_replications",
             "empty_strategies", "empty_fractions"],
    )
    def test_input_error_raised_during_run_exits_2(self, argv, message, tmp_path, capsys):
        rc = main(argv + ["--out", str(tmp_path), "--jobs", "1", "--set", "n=60"])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_edgeless_contact_layer_has_no_threshold(self, tmp_path, capsys):
        ring = tmp_path / "ring.edges"
        ring.write_text("# nodes=3\n0 1\n1 2\n0 2\n")
        empty = tmp_path / "empty.edges"
        empty.write_text("# nodes=3\n")
        rc = main([
            "threshold", "--out", str(tmp_path),
            "--set", f"awareness_edges={ring}", "--set", f"contact_edges={empty}",
        ])
        assert rc == 2
        assert "no positive eigenvalue" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["heatmap", "--set", "betas=0.0,0.2", "--set", "lambdas=0.5"], "exactly one beta_u"),
            (["timeseries"], "exactly one beta_u"),
            (["sweep", "--set", "beta_u=0"], "beta_u > 0"),
            (["threshold", "--set", "beta_u=0"], "beta_u > 0"),
            (["mmca", "--set", "beta_u=0.05"], "exceeds beta_u"),
        ],
        ids=["heatmap_beta_grid", "timeseries_default_betas", "sweep_zero_beta_u",
             "threshold_zero_beta_u", "mmca_beta_a_above_beta_u"],
    )
    def test_beta_a_conflict_rejected(self, argv, message, tmp_path, capsys):
        rc = main(argv + ["--out", str(tmp_path), "--set", "n=60", "--set", "beta_a=0.1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error: beta_a" in err and message in err
        assert not (tmp_path / "manifest.json").exists()


class TestGenerate:
    def test_round_trip_and_manifest(self, tmp_path):
        out = tmp_path / "gen"
        rc = main(["generate", "--out", str(out), "--seed", "3", "--set", "n=120"])
        assert rc == 0
        awareness = read_edge_list(out / "awareness.edges")
        contact = read_edge_list(out / "contact.edges")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["nodes"] == 120
        assert manifest["awareness_edges"] == awareness.edge_count == (120 - 4) * 4 + 6
        assert manifest["contact_edges"] == contact.edge_count == 120 * 4 // 2
        assert manifest["master_seed"] == 3
        assert manifest["status"] == "ok"

    def test_deterministic(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["generate", "--out", str(out), "--seed", "4", "--set", "n=100"])
            blobs.append((out / "awareness.edges").read_bytes())
        assert blobs[0] == blobs[1]


class TestThreshold:
    def test_ring_contact_gamma_one(self, tmp_path):
        # gamma=1 removes awareness protection: beta_c = mu / Lambda(contact)
        # and a p=0 ring lattice has Lambda = k = 4.
        out = tmp_path / "thr"
        rc = main([
            "threshold", "--out", str(out), "--seed", "1",
            "--set", "n=100", "--set", "ws_p=0", "--set", "gamma=1.0",
        ])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["beta_c"] == pytest.approx(0.015, abs=1e-9)
        header, row = (out / "threshold.csv").read_text().splitlines()
        assert header == "gamma,lambda,delta,mu,lambda_max_H,beta_c"
        assert float(row.split(",")[5]) == pytest.approx(0.015, abs=1e-9)
        p_a_lines = (out / "p_a.csv").read_text().splitlines()
        assert len(p_a_lines) == 1 + 100

    def test_edge_list_inputs(self, tmp_path):
        gen = tmp_path / "gen"
        main(["generate", "--out", str(gen), "--seed", "2", "--set", "n=100"])
        out = tmp_path / "thr"
        rc = main([
            "threshold", "--out", str(out),
            "--set", f"awareness_edges={gen / 'awareness.edges'}",
            "--set", f"contact_edges={gen / 'contact.edges'}",
        ])
        assert rc == 0
        assert (out / "threshold.csv").exists()


    def test_beta_a_sets_gamma_for_one_beta_u(self, tmp_path):
        out = tmp_path / "thr"
        rc = main([
            "threshold", "--out", str(out),
            "--set", "n=60", "--set", "beta_u=0.4", "--set", "beta_a=0.1",
        ])
        assert rc == 0
        assert (out / "threshold.csv").read_text().splitlines()[1].startswith("0.25,")


class TestMmca:
    def test_states_conserve(self, tmp_path):
        out = tmp_path / "mmca"
        rc = main([
            "mmca", "--out", str(out), "--seed", "1",
            "--set", "n=100", "--set", "beta_u=0.3", "--set", "omega_count=5",
        ])
        assert rc == 0
        lines = (out / "mmca_states.csv").read_text().splitlines()
        assert lines[0] == "node,p_us,p_as,p_ai,p_ur,p_ar,p_ui"
        assert len(lines) == 1 + 100
        for line in lines[1:]:
            parts = [float(x) for x in line.split(",")[1:]]
            assert sum(parts) == pytest.approx(1.0, abs=1e-9)
        omega = (out / "omega.txt").read_text().splitlines()
        assert len(omega) == 5


class TestExperimentsSubcommands:
    def test_heatmap_rerun_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            SMALL + "[heatmap]\nlambdas = 0.5\nbetas = 0.0, 0.4\n",
        )
        blobs = []
        for name in ("h1", "h2"):
            out = tmp_path / name
            rc = main(["heatmap", "--config", cfg, "--out", str(out), "--seed", "11"])
            assert rc == 0
            blobs.append((out / "heatmap.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_timeseries(self, tmp_path):
        cfg = write_config(tmp_path, SMALL + "[timeseries]\nbetas = 0.4\n")
        out = tmp_path / "ts"
        rc = main(["timeseries", "--config", cfg, "--out", str(out), "--seed", "11"])
        assert rc == 0
        lines = (out / "timeseries.csv").read_text().splitlines()
        assert lines[1] == "beta_u,step,rho_R,rho_A,replications"
        assert len(lines) > 3

    def test_sweep_endpoints(self, tmp_path):
        cfg = write_config(
            tmp_path,
            SMALL + "[sweep]\nstrategies = random, degree_top\nfractions = 0, 1\n",
        )
        out = tmp_path / "sw"
        rc = main(["sweep", "--config", cfg, "--out", str(out), "--seed", "11"])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[1] == "strategy,fraction,mean_rho_r,std_rho_r,replications"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 4
        assert {r[0] for r in rows} == {"random", "degree_top"}
        assert {r[1] for r in rows} == {"0.0", "1.0"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["non_absorbed_runs"] == 0
        assert "sweep.csv" in manifest["outputs"]
