import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from muxepi import ConfigError, read_edge_list
from muxepi.cli import _KEYS, main, parse_config


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

    def test_readme_key_table_names_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | kind | default |\n", 1)[1].split("\n\n", 1)[0]
        first_cells = [row.split("|")[1] for row in table.splitlines() if row.startswith("| `")]
        names = re.findall(r"`(\w+)`", "".join(first_cells))
        assert len(_KEYS) == 27
        assert sorted(names) == sorted(_KEYS)

    def test_readme_key_table_defaults_match_keys(self):
        # Each row's default cell starts with the numbers of its keys' defaults, in order.
        def numbers(default):
            values = default if isinstance(default, tuple) else (default,)
            return [v for v in values if isinstance(v, (int, float))]

        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | kind | default |\n", 1)[1].split("\n\n", 1)[0]
        checked = set()
        for row in (r for r in table.splitlines() if r.startswith("| `")):
            cells = row.split("|")
            keys = [k for k in re.findall(r"`(\w+)`", cells[1]) if numbers(_KEYS[k][1])]
            expected = [v for k in keys for v in numbers(_KEYS[k][1])]
            found = re.findall(r"(?<![\w.])\d[\d.]*(?:e-?\d+)?", cells[3])[: len(expected)]
            assert [float(x) for x in found] == expected, row
            checked.update(keys)
        assert checked == {k for k, (_, d) in _KEYS.items() if numbers(d)}

    @pytest.mark.parametrize(
        "text, sets, mu",
        [
            ("n = 60\n[threshold]\nmu = 0.2\n", {"subcommand": "threshold"}, 0.2),
            ("subcommand = threshold\n[threshold]\nmu = 0.2\n", {"subcommand": "mmca"}, 0.06),
            ("subcommand = threshold\n[threshold]\nmu = 0.2\n", {}, 0.2),
        ],
        ids=["set_subcommand_picks_section", "set_subcommand_beats_common", "common_subcommand"],
    )
    def test_section_follows_resolved_subcommand(self, text, sets, mu, tmp_path):
        config = parse_config(write_config(tmp_path, text), overrides=sets)
        sub = sets.get("subcommand", "threshold")
        assert config.subcommand == config.values["subcommand"] == sub
        assert config.get("mu") == mu

    def test_out_precedence(self, tmp_path):
        path = write_config(tmp_path, "out = file\n[threshold]\nout = section\n")
        assert parse_config(path, subcommand="mmca").out_dir == "file"
        assert parse_config(path, subcommand="threshold").out_dir == "section"
        sets = {"out": "set"}
        assert parse_config(path, overrides=sets, subcommand="threshold").out_dir == "set"
        flag = parse_config(path, overrides=sets, subcommand="threshold", out_dir="flag")
        assert flag.out_dir == "flag" and flag.values["out"] == "set"
        assert parse_config(subcommand="threshold").out_dir == "."

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        path = write_config(tmp_path, "\n# a comment\n; another\n   \nn = 60\n")
        config = parse_config(path, subcommand="threshold")
        assert config.values == {"n": 60, "subcommand": "threshold"}

    def test_unknown_subcommand_argument(self):
        with pytest.raises(ConfigError, match="unknown subcommand 'bogus'"):
            parse_config(subcommand="bogus")

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
            (["threshold", "--set", "tol=nan"], "tol"),
            (["mmca", "--set", "tol=inf"], "tol"),
            (["threshold", "--set", "tol=1e300"], "tol"),
            (["mmca", "--set", "tol=1"], "tol"),
            (["threshold", "--config", "latin1.cfg"], "latin1.cfg"),
            (["threshold", "--config", "noequals.cfg"], "noequals.cfg:2: expected 'key = value'"),
            (["threshold", "--set", "ba_m=abc"], "cannot parse value 'abc' for key 'ba_m'"),
            (["heatmap", "--set", "lambdas=0.5,1.5"], "lambdas entry 1.5 outside range"),
            (["threshold", "--set", "omega_strategy=bogus"], "unknown omega_strategy 'bogus'"),
            (["threshold", "--set", "max_steps=0"], "max_steps must be >= 1"),
            (["threshold", "--set", "omega_count=-1"], "count must be >= 0"),
            (["generate", "--set", "ba_m=0"], "m must be >= 1"),
            (["generate", "--set", "ws_k=0"], "k must be >= 2"),
            (["threshold", "--set", "awareness_edges=abc.edges",
              "--set", "contact_edges=ring.edges"], "abc.edges: bad node count in header"),
            (["threshold", "--set", "awareness_edges=ring.edges",
              "--set", "contact_edges=minus.edges"], "minus.edges: bad node count in header"),
            (["threshold", "--set", "awareness_edges=ring.edges",
              "--set", "contact_edges=huge.edges"], "huge.edges: node indices must fit in int64"),
            (["threshold", "--set", "awareness_edges=header.edges",
              "--set", "contact_edges=ring.edges"], "header.edges: not ASCII"),
            (["threshold", "--set", "awareness_edges=ring.edges",
              "--set", "contact_edges=body.edges"], "body.edges: not ASCII"),
            (["sweep", "--set", "strategies=bogus,random"],
             "--set strategies: unknown strategies entry 'bogus'"),
            (["threshold", "--config", "section_subcommand.cfg"],
             "section_subcommand.cfg:3: key 'subcommand'"),
        ],
        ids=["gamma_above_one", "odd_ws_k", "omega_count_above_n", "zero_replications",
             "zero_tol", "mmca_zero_tol", "negative_tail_window", "negative_seed",
             "awareness_edges_alone", "contact_edges_alone", "repeated_strategy",
             "repeated_fraction", "repeated_lambda", "repeated_beta", "mmca_zero_replications",
             "empty_strategies", "empty_fractions", "nan_tol", "mmca_inf_tol", "huge_tol",
             "mmca_unit_tol", "config_not_utf8", "config_line_without_equals", "unparsable_value",
             "list_entry_out_of_range", "unknown_choice", "zero_max_steps", "negative_omega_count",
             "zero_ba_m", "zero_ws_k", "edge_header_not_a_number", "edge_header_negative",
             "edge_index_beyond_int64", "edge_header_not_ascii", "edge_body_not_ascii",
             "unknown_strategy_entry", "subcommand_in_section"],
    )
    def test_input_error_raised_during_run_exits_2(
        self, argv, message, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "latin1.cfg").write_bytes(b"# caf\xe9\nn = 60\n")
        (tmp_path / "noequals.cfg").write_text("n = 60\nmu 0.1\n")
        (tmp_path / "section_subcommand.cfg").write_text("[threshold]\nmu = 0.2\nsubcommand = mmca\n")
        (tmp_path / "ring.edges").write_text("# nodes=3\n0 1\n1 2\n0 2\n")
        (tmp_path / "abc.edges").write_text("# nodes=abc\n0 1\n")
        (tmp_path / "minus.edges").write_text("# nodes=-3\n")
        (tmp_path / "huge.edges").write_text("# nodes=3\n0 99999999999999999999\n")
        (tmp_path / "header.edges").write_bytes("# nodes=3 \u00e9\n0 1\n".encode())
        # Past the first 8 KB chunk, so the header decodes and the body does not.
        (tmp_path / "body.edges").write_bytes(b"# nodes=3\n" + b"0 1\n" * 3000 + b"1 2 # \xff\n")
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

    @pytest.mark.parametrize(
        "subcommand, axes",
        [
            ("heatmap", ["lambdas=0.5", "betas=0.5"]),
            ("timeseries", ["lambda=0.5", "betas=0.5"]),
            ("sweep", ["strategies=random", "fractions=0.1"]),
        ],
    )
    def test_runs_that_do_not_absorb_exit_1(self, subcommand, axes, tmp_path):
        argv = [subcommand, "--seed", "11", "--jobs", "1", "--out", str(tmp_path)]
        for item in ["n=100", "max_steps=3", "replications=2", *axes]:
            argv += ["--set", item]
        assert main(argv) == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "partial"
        assert manifest["non_absorbed_runs"] == 2


# Prints, as JSON, the scipy and process-pool modules loaded after
# `import muxepi, muxepi.cli` and after each `main` call given in argv[1].
_MODULE_PROBE = """
import json, sys
import muxepi, muxepi.cli

def heavy():
    return sorted(m for m in sys.modules if m.startswith("scipy") or m == "concurrent.futures.process")

loaded = [heavy()]
for argv in json.loads(sys.argv[1]):
    assert muxepi.cli.main(argv) == 0, argv
    loaded.append(heavy())
print(json.dumps(loaded))
"""


class TestModulesLoaded:
    """The Monte Carlo subcommands run without scipy or a process pool; only
    the sparse linear algebra (adjacency, MMCA, threshold) loads scipy.sparse."""

    def probe(self, runs, tmp_path):
        argvs = [
            run + ["--set", "n=60", "--jobs", "1", "--out", str(tmp_path / str(i))]
            for i, run in enumerate(runs)
        ]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            os.path.join(os.path.dirname(os.path.dirname(__file__)), "src"),
            os.environ.get("PYTHONPATH"),
        ])))
        proc = subprocess.run(
            [sys.executable, "-c", _MODULE_PROBE, json.dumps(argvs)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_monte_carlo_subcommands_load_no_scipy(self, tmp_path):
        runs = [
            ["generate"],
            ["heatmap", "--set", "lambdas=0.5", "--set", "betas=0.2", "--set", "replications=1"],
            ["timeseries", "--set", "betas=0.2", "--set", "replications=1"],
            ["sweep", "--set", "strategies=degree_top,random", "--set", "fractions=0.1",
             "--set", "replications=1"],
        ]
        assert self.probe(runs, tmp_path) == [[]] * (len(runs) + 1)

    @pytest.mark.parametrize(
        "run",
        [
            ["threshold"],
            ["mmca"],
            ["sweep", "--set", "strategies=betweenness_top", "--set", "fractions=0.1",
             "--set", "replications=1"],
        ],
        ids=["threshold", "mmca", "sweep_betweenness"],
    )
    def test_sparse_subcommands_load_scipy_sparse(self, run, tmp_path):
        before, after = self.probe([run], tmp_path)
        assert before == []
        assert "scipy.sparse" in after
        assert "concurrent.futures.process" not in after
