import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from muxepi import ConfigError, cli, read_edge_list
from muxepi.cli import _AXES, _COMMANDS, _KEYS, SUBCOMMANDS, main, parse_config
from muxepi.selection import STRATEGIES

ROOT = Path(__file__).parents[1]


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def readme_config(tmp_path, subcommand):
    """README's `ini` example, resolved for `subcommand` as `--config` would resolve it."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    text = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    return parse_config(write_config(tmp_path, text), subcommand=subcommand)


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

    def test_default_heatmap_grid_is_its_decimals(self):
        # README states the grid as 0, 0.05, ..., 1: each value is written as that decimal.
        config = parse_config(subcommand="heatmap")
        for key in ("lambdas", "betas"):
            values = config.get(key)
            assert len(values) == 21
            assert [repr(v) for v in values] == [repr(round(v, 2)) for v in values]

    def test_readme_key_table_names_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | kind | default |\n", 1)[1].split("\n\n", 1)[0]
        first_cells = [row.split("|")[1] for row in table.splitlines() if row.startswith("| `")]
        names = re.findall(r"`(\w+)`", "".join(first_cells))
        assert len(_KEYS) == 26
        assert sorted(names) == sorted(_KEYS)

    def test_readme_key_table_defaults_match_keys(self):
        # Each row's default cell starts with the numbers of its keys' defaults in _COMMANDS:
        # each key's distinct defaults in subcommand order; "a, b, ..., c" is an even grid.
        def numbers(default):
            values = default if isinstance(default, tuple) else (default,)
            return [v for v in values if isinstance(v, (int, float))]

        def defaults(key):
            seen = [reads[key] for _, reads in _COMMANDS.values() if key in reads]
            return [d for i, d in enumerate(seen) if d not in seen[:i]]

        def expand(match):
            first, second, last = (float(x) for x in match.groups())
            steps = round((last - first) / (second - first))
            return ", ".join(str(first + i * (second - first)) for i in range(steps + 1))

        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | kind | default |\n", 1)[1].split("\n\n", 1)[0]
        number = r"(?<![\w.])\d[\d.]*(?:e-?\d+)?"
        checked = set()
        for row in (r for r in table.splitlines() if r.startswith("| `")):
            cells = row.split("|")
            keys = [k for k in re.findall(r"`(\w+)`", cells[1]) if k in _KEYS]
            expected = [v for k in keys for d in defaults(k) for v in numbers(d)]
            text = re.sub(rf"({number}), ({number}), \.\.\., ({number})", expand, cells[3])
            found = re.findall(number, text)[: len(expected)]
            assert [float(x) for x in found] == pytest.approx(expected), row
            checked.update(k for k in keys if any(numbers(d) for d in defaults(k)))
        assert checked == {k for _, reads in _COMMANDS.values() for k, d in reads.items()
                           if numbers(d)}

    def test_readme_key_table_states_each_domain(self):
        # Each kind cell lists, comma-separated, the domain its keys declare in _KEYS.
        def stated(domain):
            if isinstance(domain, list):
                return stated(domain[0]) + "s"
            if domain in ("path", SUBCOMMANDS, STRATEGIES):
                names = {"path": "path", SUBCOMMANDS: "one of the subcommands"}
                return names.get(domain, "strategy name")
            kind, low, high = domain
            if kind is float:
                assert (low, high) == (0.0, 1.0)  # what the README calls a rate
                return "rate"
            assert kind is int and high is None
            return f"int ≥ {low}"

        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | kind | default |\n", 1)[1].split("\n\n", 1)[0]
        checked = []
        for row in (r for r in table.splitlines() if r.startswith("| `")):
            cells = row.split("|")
            for key in re.findall(r"`(\w+)`", cells[1]):
                assert stated(_KEYS[key]) in cells[2].strip().split(", "), row
                checked.append(key)
        assert sorted(checked) == sorted(_KEYS)

    def test_readme_example_heatmap(self, tmp_path):
        config = readme_config(tmp_path, "heatmap")
        spec = config.spec
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        assert spec.lambdas == spec.betas == grid
        assert (spec.replications, spec.n, spec.master_seed) == (10, 10000, 42)

    def test_readme_example_sweep(self, tmp_path):
        config = readme_config(tmp_path, "sweep")
        spec = config.spec
        assert (spec.lambdas, spec.betas) == ((0.3,), (0.2,))
        assert spec.gamma == 0.4
        assert config.get("strategies") == ("degree_top", "random", "degree_bottom")
        assert config.get("fractions") == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)

    @pytest.mark.parametrize(
        "text, sets, axis, expected",
        [
            ("", {"lambdas": "0.2", "lambda": "0.4"}, "lambdas", (0.4,)),
            ("", {"lambda": "0.4", "lambdas": "0.2,0.3"}, "lambdas", (0.2, 0.3)),
            ("", {"betas": "0.2,0.5", "beta_u": "0.1"}, "betas", (0.1,)),
            ("lambdas = 0.2\n[sweep]\nlambda = 0.4\n", {}, "lambdas", (0.4,)),
            ("lambda = 0.4\n[sweep]\nlambdas = 0.2\n", {}, "lambdas", (0.2,)),
            ("beta_u = 0.3\nbetas = 0.1\n", {}, "betas", (0.1,)),
            ("lambda = 0.3\n", {"beta_u": "0.1"}, "lambdas", (0.3,)),
        ],
        ids=["set_lambda_after_lambdas", "set_lambdas_after_lambda", "set_beta_u_after_betas",
             "section_lambda_beats_common_lambdas", "section_lambdas_beats_common_lambda",
             "later_line_wins", "common_lambda"],
    )
    def test_one_value_key_is_its_axis(self, text, sets, axis, expected, tmp_path):
        config = parse_config(write_config(tmp_path, text), overrides=sets, subcommand="sweep")
        assert config.get(axis) == expected
        assert "lambda" not in config.values and "beta_u" not in config.values

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
        assert config.subcommand == sub
        assert config.get("mu") == mu

    def test_out_precedence(self, tmp_path):
        path = write_config(tmp_path, "out = file\n[threshold]\nout = section\n")
        assert parse_config(path, subcommand="mmca").out_dir == "file"
        assert parse_config(path, subcommand="threshold").out_dir == "section"
        sets = {"out": "set"}
        assert parse_config(path, overrides=sets, subcommand="threshold").out_dir == "set"
        flag = parse_config(path, overrides=sets, subcommand="threshold", out_dir="flag")
        assert flag.out_dir == "flag" and "out" not in flag.values
        assert parse_config(subcommand="threshold").out_dir == "."
        assert main(["threshold", "--out", ""]) == 2

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        path = write_config(tmp_path, "\n# a comment\n; another\n   \nn = 60\n")
        config = parse_config(path, subcommand="threshold")
        assert config.values == {**parse_config(subcommand="threshold").values, "n": 60}

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
            (["threshold", "--set", "gamma=1.5"], "--set gamma: gamma 1.5 outside range"),
            (["generate", "--set", "ws_k=5"], "ws_k must be even, got 5"),
            (["threshold", "--set", "omega_count=61"], "omega_count must be at most n (60), got 61"),
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
            (["timeseries", "--set", "lambdas=0.2,0.9", "--set", "replications=1"],
             "lambdas must hold one entry"),
            (["sweep", "--set", "betas=0.2,0.4", "--set", "replications=1"],
             "betas must hold one entry"),
            (["mmca", "--set", "lambdas=0.2,0.9"], "lambdas must hold one entry"),
            (["threshold", "--set", "lambdas=0.2,0.9"], "lambdas must hold one entry"),
            (["threshold", "--set", "awareness_edges=nope.edges", "--set", "contact_edges=ring.edges"],
             "nope.edges: cannot read: No such file"),
            (["threshold", "--set", "awareness_edges=ring.edges", "--set", "contact_edges=dir.edges"],
             "dir.edges: cannot read: Is a directory"),
            (["generate", "--set", "awareness_edges=ring.edges", "--set", "contact_edges=nope.edges"],
             "nope.edges: cannot read"),
            (["generate", "--set", "ba_m=0"], "--set ba_m: ba_m must be >= 1, got 0"),
            (["generate", "--set", "ws_k=0"], "--set ws_k: ws_k must be >= 2, got 0"),
            (["threshold", "--set", "omega_count=-1"], "omega_count must be >= 0, got -1"),
            (["generate", "--set", "replications=0"], "replications must be >= 1, got 0"),
            (["generate", "--set", "tail_window=-1"], "tail_window must be >= 0, got -1"),
            (["generate", "--set", "max_steps=0"], "max_steps must be >= 1, got 0"),
            (["generate", "--set", "omega_fraction=1.5"], "omega_fraction 1.5 outside range"),
            (["generate", "--set", "initial_infected_fraction=nan"],
             "initial_infected_fraction nan outside range"),
            (["generate", "--config", "nul.cfg"], "nul.cfg:1: contact_edges holds a NUL character"),
            (["threshold", "--set", "awareness_edges="], "--set awareness_edges: awareness_edges is empty"),
            (["mmca", "--set", "contact_edges= "], "--set contact_edges: contact_edges is empty"),
            (["generate", "--set", "out="], "--set out: out is empty"),
            (["heatmap", "--config", "empty_out.cfg"], "empty_out.cfg:1: out is empty"),
            (["threshold", "--set", "omega_count=3", "--set", "omega_fraction=0.1"],
             "omega_count and omega_fraction are both given"),
            (["heatmap", "--set", "omega_fraction=0.1", "--set", "omega_count=3",
              "--set", "lambdas=0.5", "--set", "betas=0.2"],
             "omega_count and omega_fraction are both given"),
            (["heatmap", "--set", "beta_a=0.1"], "--set beta_a: unknown key 'beta_a'"),
            (["threshold", "--set", "beta_u=0.1"], "--set beta_u: threshold reads no beta_u"),
            (["generate", "--set", "ws_k=60"], "ws_k must be below n (60), got 60"),
            (["timeseries", "--set", "ba_m=61"], "ba_m must be at most n (60), got 61"),
            (["threshold", "--set", "awareness_edges=ring.edges", "--set", "contact_edges=ring.edges",
              "--set", "omega_count=4"], "count 4 outside range [0, 3]"),
            (["mmca", "--set", "awareness_edges=zero.edges", "--set", "contact_edges=zero.edges"],
             "zero.edges: the multiplex has no node"),
            (["threshold", "--set", "awareness_edges=zero.edges",
              "--set", "contact_edges=zero.edges"], "zero.edges: the multiplex has no node"),
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
             "unknown_strategy_entry", "subcommand_in_section", "timeseries_second_lambda",
             "sweep_second_beta", "mmca_second_lambda", "threshold_second_lambda",
             "missing_edge_file", "edge_file_is_a_directory",
             "generate_missing_edge_file", "zero_ba_m_names_key", "zero_ws_k_names_key",
             "negative_omega_count_names_key", "generate_zero_replications",
             "generate_negative_tail_window", "generate_zero_max_steps",
             "generate_omega_fraction_above_one", "generate_nan_initial_infected_fraction",
             "nul_in_path", "empty_awareness_edges", "empty_contact_edges", "empty_set_out",
             "empty_config_out", "omega_count_with_fraction", "heatmap_omega_fraction_with_count",
             "removed_beta_a", "threshold_beta_u", "ws_k_not_below_n", "ba_m_above_n",
             "omega_count_above_edge_file_nodes", "mmca_zero_node_edge_files",
             "threshold_zero_node_edge_files"],
    )
    def test_input_error_raised_during_run_exits_2(
        self, argv, message, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "latin1.cfg").write_bytes(b"# caf\xe9\nn = 60\n")
        (tmp_path / "noequals.cfg").write_text("n = 60\nmu 0.1\n")
        (tmp_path / "section_subcommand.cfg").write_text("[threshold]\nmu = 0.2\nsubcommand = mmca\n")
        (tmp_path / "nul.cfg").write_text("contact_edges = a\0b\n")
        (tmp_path / "empty_out.cfg").write_text("out =\n")
        (tmp_path / "ring.edges").write_text("# nodes=3\n0 1\n1 2\n0 2\n")
        (tmp_path / "zero.edges").write_text("# nodes=0\n")
        (tmp_path / "dir.edges").mkdir()
        (tmp_path / "abc.edges").write_text("# nodes=abc\n0 1\n")
        (tmp_path / "minus.edges").write_text("# nodes=-3\n")
        (tmp_path / "huge.edges").write_text("# nodes=3\n0 99999999999999999999\n")
        (tmp_path / "header.edges").write_bytes("# nodes=3 \u00e9\n0 1\n".encode())
        # Past the first 8 KB chunk, so the header decodes and the body does not.
        (tmp_path / "body.edges").write_bytes(b"# nodes=3\n" + b"0 1\n" * 3000 + b"1 2 # \xff\n")
        # Edge files fix the network, so only a run that builds its own layers is given n.
        sized = [] if any("_edges=" in a for a in argv) else ["--set", "n=60"]
        rc = main(argv + ["--out", str(tmp_path), "--jobs", "1"] + sized)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_uncreatable_out_dir_exits_2(self, tmp_path, capsys):
        out = tmp_path / "file" / "out"
        (tmp_path / "file").write_text("a regular file\n")
        assert main(["generate", "--out", str(out), "--set", "n=60"]) == 2
        assert f"cannot create output directory {out}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["awareness_edges", "contact_edges"])
    def test_lone_edge_file_exits_before_out_exists(self, key, tmp_path, capsys):
        out = tmp_path / "fresh"
        assert main(["threshold", "--out", str(out), "--set", "n=60", "--set", f"{key}=a.edges"]) == 2
        assert "awareness_edges and contact_edges go together" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "sub, sets, message",
        [("heatmap", ["n=60", "ws_k=5"], "ws_k must be even, got 5"),
         ("heatmap", ["n=60", "ws_k=60"], "ws_k must be below n (60), got 60"),
         ("heatmap", ["n=60", "ba_m=61"], "ba_m must be at most n (60), got 61"),
         ("heatmap", ["n=10"], "omega_count must be at most n (10), got 20"),
         ("threshold", ["n=60", "mu=0"], "mu must be above 0 for threshold, got 0.0")],
        ids=["odd_ws_k", "ws_k_not_below_n", "ba_m_above_n", "default_omega_count_above_n",
             "threshold_mu_zero"],
    )
    def test_size_that_does_not_fit_n_exits_before_out_exists(self, sub, sets, message, tmp_path,
                                                              capsys):
        out = tmp_path / "fresh"
        argv = [sub, "--out", str(out)] + [a for s in sets for a in ("--set", s)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"muxepi: config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "sub, item, message",
        [("heatmap", "lambdas=0.1,0.1", "lambdas has a repeated entry: (0.1, 0.1)"),
         ("sweep", "fractions=", "fractions is empty"),
         ("sweep", "strategies=random,random",
          "strategies has a repeated entry: ('random', 'random')"),
         ("heatmap", "initial_infected_fraction=1",
          "initial_infected_fraction must be in (0,1), got 1.0")],
        ids=["repeated_lambda", "empty_fractions", "repeated_strategy", "all_infected"],
    )
    def test_spec_error_exits_before_out_exists(self, sub, item, message, tmp_path, capsys):
        # The run's ExperimentSpec is built and checked in parse_config, before run makes --out.
        out = tmp_path / "fresh"
        assert main([sub, "--out", str(out), "--set", "n=60", "--set", item]) == 2
        assert capsys.readouterr().err == f"muxepi: error: {message}\n"
        assert not out.exists()

    def test_edge_files_skip_the_generator_size_rules(self, tmp_path):
        # The common block's size keys are skipped, as any key the run does not read.
        (tmp_path / "ring.edges").write_text("# nodes=3\n0 1\n1 2\n0 2\n")
        (tmp_path / "sizes.cfg").write_text("n = 2\nba_m = 3\nws_k = 5\nws_p = 0.5\n")
        ring, out = tmp_path / "ring.edges", tmp_path / "thr"
        argv = ["threshold", "--out", str(out), "--config", str(tmp_path / "sizes.cfg"),
                "--set", f"awareness_edges={ring}", "--set", f"contact_edges={ring}"]
        assert main(argv) == 0
        assert (out / "threshold.csv").exists()
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert not {"n", "ba_m", "ws_k", "ws_p"} & set(config)

    @pytest.mark.parametrize("sub", ["generate", "threshold", "mmca"])
    def test_edge_file_run_records_no_size(self, sub, tmp_path):
        (tmp_path / "ring.edges").write_text("# nodes=3\n0 1\n1 2\n0 2\n")
        ring, out = tmp_path / "ring.edges", tmp_path / "run"
        argv = [sub, "--out", str(out), "--jobs", "1",
                "--set", f"awareness_edges={ring}", "--set", f"contact_edges={ring}"]
        assert main(argv) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["awareness_edges"] == str(ring)
        assert not {"n", "ba_m", "ws_k", "ws_p"} & set(config)

    @pytest.mark.parametrize(
        "sub, given, message",
        [("threshold", ["--set", "n=7", "--set", "ws_k=6"], "n: threshold reads no n"),
         ("mmca", ["--set", "ws_p=0.5"], "ws_p: mmca reads no ws_p"),
         ("generate", ["--set", "ba_m=2"], "ba_m: generate reads no ba_m"),
         ("threshold", ["--config", "section.cfg"], "ws_k: threshold reads no ws_k")],
        ids=["set_n_and_ws_k", "set_ws_p", "generate_set_ba_m", "section_ws_k"],
    )
    def test_size_key_with_edge_files_exits_before_out_exists(
        self, sub, given, message, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        lines = [f"{i} {(i + 1) % 50}" for i in range(50)]
        (tmp_path / "ring.edges").write_text("\n".join(["# nodes=50", *lines, ""]))
        (tmp_path / "section.cfg").write_text("n = 50\n[threshold]\nws_k = 6\n")
        out = tmp_path / "fresh"
        argv = [sub, "--out", str(out), "--set", "awareness_edges=ring.edges",
                "--set", "contact_edges=ring.edges"] + given
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"muxepi: config error: {message} with edge files\n")
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["heatmap", "timeseries", "sweep"])
    @pytest.mark.parametrize(
        "keys",
        [("awareness_edges", "contact_edges"), ("awareness_edges",), ("contact_edges",)],
        ids=["both", "awareness_alone", "contact_alone"],
    )
    def test_experiments_reject_edge_files(self, subcommand, keys, tmp_path, capsys):
        # Each replication builds its own multiplex, so an edge file would go unread.
        edges = tmp_path / "ring.edges"
        edges.write_text("# nodes=60\n0 1\n1 2\n")
        argv = [subcommand, "--out", str(tmp_path), "--jobs", "1", "--set", "n=60",
                "--set", "replications=1", "--set", "lambdas=0.5", "--set", "betas=0.2"]
        argv += ["--set", "fractions=0.1"] if subcommand == "sweep" else []
        for key in keys:
            argv += ["--set", f"{key}={edges}"]
        assert main(argv) == 2
        assert f"--set {keys[0]}: {subcommand} reads no {keys[0]}" in capsys.readouterr().err
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


class TestRateAxes:
    """lambda and beta_u are the one-value spellings of lambdas and betas."""

    def run(self, subcommand, items, out):
        argv = [subcommand, "--out", str(out), "--jobs", "1", "--set", "n=60"]
        if subcommand not in ("threshold", "mmca"):
            items = ["replications=1"] + items
        for item in items + (["fractions=0.1"] if subcommand == "sweep" else []):
            argv += ["--set", item]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        return manifest["config"], {f: (out / f).read_bytes() for f in manifest["outputs"]}

    @pytest.mark.parametrize(
        "one, axis, subcommand",
        [("lambda=0.3", "lambdas=0.3", s) for s in ("sweep", "timeseries", "mmca", "threshold")]
        + [("beta_u=0.1", "betas=0.1", s) for s in ("sweep", "timeseries", "mmca")],
        ids=[f"lambda-{s}" for s in ("sweep", "timeseries", "mmca", "threshold")]
        + [f"beta_u-{s}" for s in ("sweep", "timeseries", "mmca")],
    )
    def test_spellings_give_the_same_bytes(self, one, axis, subcommand, tmp_path):
        config, outputs = self.run(subcommand, [one], tmp_path / "one")
        assert (config, outputs) == self.run(subcommand, [axis], tmp_path / "axis")
        assert one.split("=")[0] not in config

    def test_heatmap_one_value_keys_run_one_cell(self, tmp_path):
        self.run("heatmap", ["lambda=0.3", "beta_u=0.1"], tmp_path)
        lines = (tmp_path / "heatmap.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[2:]] == [["0.3", "0.1"]]

    def test_repeated_set_keeps_the_last_value_across_spellings(self, tmp_path):
        config, _ = self.run("sweep", ["lambdas=0.2", "lambda=0.4", "lambdas=0.3"], tmp_path)
        assert config["lambdas"] == [0.3] and "lambda" not in config

    def test_negative_zero_gives_the_bytes_of_zero(self, tmp_path):
        minus, plus = (self.run("threshold", [f"lambda={v}"], tmp_path / v) for v in ("-0", "0"))
        assert repr(minus) == repr(plus)  # repr tells -0.0 from 0.0, which == does not


# An in-domain value for each key, as --set spells it.
_SAMPLES = {"path": "x.edges", STRATEGIES: "degree_top", (int, 0, None): "0", (int, 1, None): "1",
            (int, 2, None): "2", (float, 0.0, 1.0): "0.5"}


def sample(domain):
    return sample(domain[0]) if isinstance(domain, list) else _SAMPLES[domain]


_EDGE_KEYS = {"awareness_edges", "contact_edges"}
# beta_a, once the second spelling of gamma, is an unknown key wherever it is given.
_SETTABLE = sorted(set(_KEYS) - {"subcommand", "seed", "out"} | {"beta_a"})


class TestReadSets:
    """Each subcommand takes only the keys `_COMMANDS` declares for it."""

    @pytest.mark.parametrize("key", _SETTABLE)
    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_key_is_read_or_rejected(self, subcommand, key, tmp_path):
        declared = _AXES.get(key, key) in _COMMANDS[subcommand][1]
        # n's floor of 1 is below the default layer sizes, which parse_config checks against n.
        value = "60" if key == "n" else sample(_KEYS.get(key, (float, 0.0, 1.0)))
        common = write_config(tmp_path, f"{key} = {value}\n", "common.cfg")
        section = write_config(tmp_path, f"[{subcommand}]\n{key} = {value}\n", "section.cfg")
        if key not in _KEYS:
            for path, sets, where in ((None, {key: value}, f"--set {key}"),
                                      (common, {}, "common.cfg:1"), (section, {}, "section.cfg:2")):
                with pytest.raises(ConfigError, match=f"{where}: unknown key '{key}'$"):
                    parse_config(path, overrides=sets, subcommand=subcommand)
            return
        if declared:
            # An edge file is read only with its partner, so --set gives the partner.
            partner = {k: value for k in _EDGE_KEYS - {key}} if key in _EDGE_KEYS else {}
            for path, sets in ((None, {key: value}), (common, {}), (section, {})):
                config = parse_config(path, overrides={**sets, **partner}, subcommand=subcommand)
                assert _AXES.get(key, key) in config.values
            return
        with pytest.raises(ConfigError, match=f"^--set {key}: {subcommand} reads no {key}$"):
            parse_config(overrides={key: value}, subcommand=subcommand)
        with pytest.raises(ConfigError, match=f"section.cfg:2: {subcommand} reads no {key}$"):
            parse_config(section, subcommand=subcommand)
        # The common block is shared by every subcommand: each skips what it does not read.
        assert parse_config(common, subcommand=subcommand).values == parse_config(
            subcommand=subcommand).values

    def test_a_section_of_another_subcommand_is_checked_too(self, tmp_path):
        path = write_config(tmp_path, "[sweep]\nomega_count = 3\n")
        with pytest.raises(ConfigError, match="run.cfg:2: sweep reads no omega_count"):
            parse_config(path, subcommand="heatmap")

    @pytest.mark.parametrize(
        "subcommand, items",
        [
            ("generate", []),
            ("threshold", ["omega_count=3"]),
            ("mmca", ["beta_u=0.3", "gamma=0.3"]),
            ("heatmap", ["replications=1", "lambdas=0.5", "betas=0.2"]),
            ("timeseries", ["replications=1", "betas=0.2", "omega_fraction=0.1"]),
            ("sweep", ["replications=1", "strategies=random", "fractions=0.1"]),
        ],
        ids=["generate", "threshold", "mmca", "heatmap", "timeseries", "sweep"],
    )
    def test_runners_look_up_only_declared_keys(self, subcommand, items, tmp_path, monkeypatch):
        # A runner that reads a key the table does not name fails here until the table names it.
        class Recorder(dict):
            def get(self, key, default=None):
                seen.add(key)
                return super().get(key, default)

            def __getitem__(self, key):
                seen.add(key)
                return super().__getitem__(key)

            def __contains__(self, key):
                seen.add(key)
                return super().__contains__(key)

            def items(self):
                seen.update(self.keys())
                return super().items()

        def recording_run(config):
            config.values = Recorder(config.values)
            return run(config)

        seen = set()
        run = cli.run
        monkeypatch.setattr(cli, "run", recording_run)
        argv = [subcommand, "--out", str(tmp_path), "--jobs", "1", "--set", "n=60"]
        for item in items:
            argv += ["--set", item]
        assert main(argv) == 0
        assert seen and seen <= set(_COMMANDS[subcommand][1]) | {"seed", "out"}

    def test_readme_subcommand_table_lists_the_keys_read(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        table = readme.split("| subcommand | output | reads |\n", 1)[1].split("\n\n", 1)[0]
        rows = {}
        for row in (r for r in table.splitlines() if r.startswith("| `")):
            cells = row.split("|")
            rows[cells[1].strip().strip("`")] = sorted(re.findall(r"`(\w+)`", cells[3]))
        assert rows == {sub: sorted(keys) for sub, (_, keys) in _COMMANDS.items()}


class TestBenchmarkInvocations:
    def test_every_invocation_parses(self, monkeypatch):
        # A domain that rejected a benchmark setting would turn its run into an exit 2.
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        workloads = importlib.import_module("workloads")
        for workload in workloads.WORKLOADS.values():
            setup_dirs = {inv.name: "setup-dir" for inv in workload.setup}
            for inv in workload.setup + workload.operation:
                settings = workloads.resolve(inv, setup_dirs)
                overrides = dict(item.split("=", 1) for item in settings)
                assert len(overrides) == len(settings) and "{setup" not in str(settings)
                config = parse_config(overrides=overrides, subcommand=inv.subcommand, seed=1, jobs=1)
                assert (config.subcommand, config.seed) == (inv.subcommand, 1)


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
