"""Golden output hashes: every CLI subcommand's output files, byte for byte.

Each case runs `muxepi.cli.main` on a small fixed config and compares the
sha256 of every file the manifest lists. A refactor that keeps the outputs
keeps these hashes; a change that alters an output on purpose re-pins them
and says so in CHANGES.md.
"""

import hashlib
import json

import pytest

from muxepi.cli import main

# Each subcommand is given only keys it reads: generate and threshold start no
# infection, and sweep sizes its silenced sets by its fractions.
NET = ["--seed", "11", "--jobs", "1", "--set", "n=300"]
SMALL = NET + ["--set", "initial_infected_fraction=0.02"]
EXPERIMENT = SMALL + ["--set", "replications=2"]
OMEGA = ["--set", "omega_count=10"]

CASES = {
    "generate": (
        ["generate"] + NET,
        {
            "awareness.edges": "e2562f5b4cdf1d9473a6002affb963eabd03edd7f39c8eae164dbd10e493117f",
            "contact.edges": "ee6aef3706e5f70e7743bbfdd6cb3edb717045bdb170416dda9583e0f4c0b5f6",
        },
    ),
    "threshold": (
        ["threshold"] + NET
        + ["--set", "gamma=0.3",
           "--set", "omega_strategy=clustering_top", "--set", "omega_count=15"],
        {
            "threshold.csv": "54a36e5a6493ff0f0d9602094fef8a5be69680443d9f965f08ebec4ef0e0c3e4",
            "p_a.csv": "f8605a2597840ebe35c58c287bfa6ad8d02213775d06ffdfa58343d973501455",
            "omega.txt": "4df20c2db75cdfb07de256bd3473b87f19875c66471275ee9953077b92ecb598",
        },
    ),
    "mmca": (
        ["mmca"] + SMALL
        + ["--set", "lambda=0.4", "--set", "beta_u=0.3",
           "--set", "omega_strategy=degree_top", "--set", "omega_count=15"],
        {
            "mmca_states.csv": "d5ca146eb495581d6261df4cc1e729fe997104513c4bd77fad28a660403127ec",
            "omega.txt": "edbd314c737efa3cd87901f387bcd26abbdc3d3c3804fc12d829eccdddc11b32",
        },
    ),
    "heatmap": (
        ["heatmap"] + EXPERIMENT + OMEGA + ["--set", "lambdas=0.0,0.6", "--set", "betas=0.0,0.2,0.5"],
        {
            "heatmap.csv": "a5c98586705b865e2ff77467bb88eef914d43f47481a030e6ad161c2734cfa21",
        },
    ),
    "timeseries": (
        ["timeseries"] + EXPERIMENT + OMEGA + ["--set", "lambda=0.5", "--set", "betas=0.2,0.6"],
        {
            "timeseries.csv": "65041d45a7db67be3dd6266a72e10f29cf461d5132ea669747be7a1120ab5430",
        },
    ),
    "sweep": (
        ["sweep"] + EXPERIMENT
        + ["--set", "strategies=betweenness_top,clustering_top,random", "--set", "fractions=0.1"],
        {
            "sweep.csv": "5a41dbda4300dc8e4bad4287231166637f8c1311aed0b041e41d6c8daf452d52",
        },
    ),
}


def _run(argv, out):
    assert main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in manifest["outputs"]}


def _replay_argv(subcommand, out):
    """`subcommand` with the manifest's config in `out` as --set pairs, lists joined by commas."""
    config = json.loads((out / "manifest.json").read_text())["config"]
    argv = [subcommand, "--jobs", "2"]
    for key, value in config.items():
        value = ",".join(map(str, value)) if isinstance(value, list) else value
        argv += ["--set", f"{key}={value}"]
    return argv


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_pinned_hashes(name, tmp_path):
    argv, pinned = CASES[name]
    assert _run(argv, tmp_path) == pinned


def test_threshold_from_edge_files_matches_generated(tmp_path):
    # The edge files of `generate` read back into the same multiplex that
    # `threshold` builds from the same seed, so the outputs are the same bytes.
    gen = tmp_path / "gen"
    _run(CASES["generate"][0], gen)
    argv, pinned = CASES["threshold"]
    size = argv.index("n=300")  # the edge files fix the network, so the run reads no n
    argv = argv[:size - 1] + argv[size + 1:] + [
        "--set", f"awareness_edges={gen / 'awareness.edges'}",
        "--set", f"contact_edges={gen / 'contact.edges'}",
    ]
    assert _run(argv, tmp_path / "thr") == pinned
    # The record names the edge files, so the run replays while they exist.
    assert _run(_replay_argv("threshold", tmp_path / "thr"), tmp_path / "replay") == pinned


@pytest.mark.parametrize("name", sorted(CASES))
def test_manifest_config_replays_the_run(name, tmp_path):
    # The record is whole: fed back as --set pairs alone, it gives every output byte again.
    argv, pinned = CASES[name]
    assert _run(argv, tmp_path / "run") == pinned
    assert _run(_replay_argv(argv[0], tmp_path / "run"), tmp_path / "replay") == pinned
