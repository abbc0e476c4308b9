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
            "heatmap.csv": "2726ff023f6fe2a9fb6ca6432cdb964888c83fcc8b3dd6ea60e83dedfb2209ae",
        },
    ),
    "timeseries": (
        ["timeseries"] + EXPERIMENT + OMEGA + ["--set", "lambda=0.5", "--set", "betas=0.2,0.6"],
        {
            "timeseries.csv": "9e62fba2bbe917d27058176ad0889912efef7b11b47f799767cb3754fd270a34",
        },
    ),
    "sweep": (
        ["sweep"] + EXPERIMENT
        + ["--set", "strategies=betweenness_top,clustering_top,random", "--set", "fractions=0.1"],
        {
            "sweep.csv": "1324505ff662924606422db4d347f13d6f18d3589ca511e82273b06ae0e2b5af",
        },
    ),
}


def _run(argv, out):
    assert main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in manifest["outputs"]}


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
    argv = argv + [
        "--set", f"awareness_edges={gen / 'awareness.edges'}",
        "--set", f"contact_edges={gen / 'contact.edges'}",
    ]
    assert _run(argv, tmp_path / "thr") == pinned
