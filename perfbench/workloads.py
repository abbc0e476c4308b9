"""The benchmark's workloads: fixed lists of `muxepi` CLI invocations.

One *operation* of a workload is its `operation` list run once, in order.
`setup` invocations run once per process before timing starts; their outputs
are inputs the operations reuse. Every invocation gets `--jobs 1` and the
benchmark seed; keys not set here keep the CLI defaults.

`{setup}` in a setting is replaced by the set-up output directory of the
invocation named after the colon, e.g. `{setup:generate}`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    """One `muxepi` run; `name` is also its output directory."""

    name: str
    subcommand: str
    settings: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # nodes per network, the input size `wall_s` is stated at
    operation: tuple[Invocation, ...]
    setup: tuple[Invocation, ...] = ()


_EDGES = (
    "awareness_edges={setup:generate}/awareness.edges",
    "contact_edges={setup:generate}/contact.edges",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="heatmap_n10k",
            n=10000,
            operation=(
                Invocation(
                    "heatmap",
                    "heatmap",
                    ("n=10000", "lambdas=0.2,0.8", "betas=0.01,0.2,0.5", "replications=2"),
                ),
            ),
        ),
        Workload(
            name="sweep_centrality_n1k",
            n=1000,
            operation=(
                Invocation(
                    "sweep",
                    "sweep",
                    (
                        "n=1000",
                        "lambda=0.3",
                        "beta_u=0.2",
                        "gamma=0.4",
                        "strategies=betweenness_top,clustering_top,degree_bottom,random",
                        "fractions=0.1,0.3",
                        "replications=1",
                    ),
                ),
            ),
        ),
        Workload(
            name="mmca_threshold_n10k",
            n=10000,
            setup=(Invocation("generate", "generate", ("n=10000",)),),
            operation=(
                Invocation("threshold_g0.2", "threshold", ("lambda=0.3", "gamma=0.2") + _EDGES),
                Invocation("threshold_g1.0", "threshold", ("lambda=0.3", "gamma=1.0") + _EDGES),
                Invocation(
                    "mmca_l0.2_b0.1",
                    "mmca",
                    ("lambda=0.2", "beta_u=0.1", "omega_strategy=degree_top", "omega_count=500")
                    + _EDGES,
                ),
                Invocation(
                    "mmca_l0.8_b0.5",
                    "mmca",
                    ("lambda=0.8", "beta_u=0.5", "omega_strategy=degree_top", "omega_count=500")
                    + _EDGES,
                ),
            ),
        ),
        Workload(
            name="timeseries_n10k",
            n=10000,
            operation=(
                Invocation(
                    "timeseries",
                    "timeseries",
                    ("n=10000", "lambda=0.5", "betas=0.2,0.5", "replications=3"),
                ),
            ),
        ),
    )
}


def resolve(inv: Invocation, setup_dirs: dict[str, str]) -> list[str]:
    """The invocation's settings with `{setup:<name>}` replaced from `setup_dirs`."""
    settings = []
    for item in inv.settings:
        for name, path in setup_dirs.items():
            item = item.replace("{setup:%s}" % name, path)
        settings.append(item)
    return settings


def argv(subcommand: str, settings, seed: int, out_dir: str) -> list[str]:
    """`muxepi` command line for one invocation."""
    args = [subcommand, "--jobs", "1", "--seed", str(seed), "--out", out_dir]
    for item in settings:
        args += ["--set", item]
    return args
