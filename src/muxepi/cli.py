"""Command-line entry point.

One subcommand per run: generate, mmca, threshold, heatmap, timeseries, sweep.
Parameters come from a flat key-value config file with optional per-subcommand
sections; command-line --set flags override file values; all randomness flows
from one master seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .dynamics import DynamicsParams
from .errors import ConfigError, InvalidArgumentError, MuxepiError
from .experiments import (
    ExperimentSpec,
    heatmap_experiment,
    omega_ratio_sweep,
    timeseries_experiment,
)
from .graph import build_multiplex, generate_ba, generate_ws, read_edge_list, write_edge_list
from .mmca import COMPONENTS, epidemic_threshold, mmca_run, write_node_csv, write_threshold_csv
from .selection import STRATEGIES, OmegaSpec, select_omega, write_omega_set

SUBCOMMANDS = ("generate", "mmca", "threshold", "heatmap", "timeseries", "sweep")

# key -> (kind, default). A kind is a tag, or the tuple of allowed strings.
# A None default leaves the key unset unless given: seed and out have their own
# precedence, and the subcommand that reads the key owns its fallback
# (lambdas, betas, omega_count).
_KEYS = {
    "subcommand": (SUBCOMMANDS, None),
    "seed": ("int", None),
    "out": ("str", None),
    "n": ("int", 10000),
    "ba_m": ("int", 4),
    "ws_k": ("int", 4),
    "ws_p": ("rate", 0.1),
    "awareness_edges": ("str", None),
    "contact_edges": ("str", None),
    "lambda": ("rate", 0.5),
    "beta_u": ("rate", 0.2),
    "beta_a": ("rate", None),
    "gamma": ("rate", 0.5),
    "delta": ("rate", 0.04),
    "mu": ("rate", 0.06),
    "initial_infected_fraction": ("float", 0.001),
    "max_steps": ("int", 100_000),
    "tol": ("float", 1e-9),
    "omega_strategy": (STRATEGIES, "random"),
    "omega_count": ("int", None),
    "omega_fraction": ("float", None),
    "lambdas": ("rates", None),
    "betas": ("rates", None),
    "strategies": ("names", ("degree_top", "random", "degree_bottom")),
    "fractions": ("rates", (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)),
    "replications": ("int", 10),
    "tail_window": ("int", 100),
    "fresh_networks": ("bool", True),
}
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


@dataclass
class RunConfig:
    subcommand: str
    out_dir: str
    seed: int
    jobs: int
    values: dict = field(default_factory=dict)

    def get(self, key):
        return self.values.get(key, _KEYS[key][1])


def _parse_value(key: str, raw: str, where: str):
    if key not in _KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    kind = _KEYS[key][0]
    try:
        if kind in ("rate", "float"):
            value = float(raw)
        elif kind == "int":
            value = int(raw)
        elif kind == "bool":
            value = _BOOLS[raw.strip().lower()]
        elif kind in ("rates", "names"):
            items = tuple(p.strip() for p in raw.split(",") if p.strip())
            value = items if kind == "names" else tuple(float(p) for p in items)
        else:
            value = raw.strip()
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{where}: cannot parse value {raw!r} for key {key!r}") from exc
    if kind == "rate" and not 0.0 <= value <= 1.0:
        raise ConfigError(f"{where}: {key}={value} outside range [0,1]")
    if kind == "rates":
        for v in value:
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{where}: {key} entry {v} outside range [0,1]")
    if isinstance(kind, tuple) and value not in kind:
        raise ConfigError(f"{where}: unknown {key} {value!r}")
    return value


def _read_config_file(path: str) -> dict:
    """Parse sectioned key-value text; returns {section: {key: (value, line)}}."""
    sections: dict = {"common": {}}
    current = "common"
    try:
        lines = open(path, "r", encoding="utf-8").read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#") or stripped.startswith(";"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip()
            if current != "common" and current not in SUBCOMMANDS:
                raise ConfigError(f"{path}:{lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        sections[current][key] = _parse_value(key, raw.strip(), f"{path}:{lineno}")
    return sections


def parse_config(
    path: str | None = None,
    overrides: dict | None = None,
    subcommand: str | None = None,
    out_dir: str | None = None,
    seed: int | None = None,
    jobs: int | None = None,
) -> RunConfig:
    """Merge config file, flag overrides, and defaults into a validated RunConfig.

    Precedence: flags > subcommand section > common section > defaults.
    """
    values: dict = {}
    if path is not None:
        sections = _read_config_file(path)
        values.update(sections["common"])
        values.update(sections.get(subcommand or values.get("subcommand"), {}))
    for key, raw in (overrides or {}).items():
        values[key] = _parse_value(key, raw, f"--set {key}")
    sub = subcommand or values.get("subcommand")
    if not sub:
        raise ConfigError("no subcommand given (command line or config 'subcommand' key)")
    if sub not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {sub!r}")
    values["subcommand"] = sub
    if seed is None:
        seed = values.get("seed")
    if seed is None:
        env = os.environ.get("MUXEPI_SEED")
        seed = int(env) if env else 0
    resolved_out = out_dir or values.get("out") or "."
    return RunConfig(
        subcommand=sub,
        out_dir=resolved_out,
        seed=int(seed),
        jobs=jobs if jobs is not None else (os.cpu_count() or 1),
        values=values,
    )


def _gamma(config: RunConfig, betas) -> float:
    """The gamma key, or beta_a / beta_u when beta_a is given with one beta_u."""
    beta_a = config.values.get("beta_a")
    if beta_a is None:
        return config.get("gamma")
    if len(betas) != 1:
        raise ConfigError(f"beta_a needs exactly one beta_u, got betas={tuple(betas)}")
    if betas[0] == 0.0:
        raise ConfigError("beta_a needs beta_u > 0")
    if beta_a > betas[0]:
        raise ConfigError(f"beta_a={beta_a} exceeds beta_u={betas[0]}")
    return beta_a / betas[0]


def _dynamics_params(config: RunConfig) -> DynamicsParams:
    beta_u = config.get("beta_u")
    return DynamicsParams(
        lam=config.get("lambda"),
        delta=config.get("delta"),
        beta_u=beta_u,
        gamma=_gamma(config, (beta_u,)),
        mu=config.get("mu"),
        initial_infected_fraction=config.get("initial_infected_fraction"),
        max_steps=config.get("max_steps"),
    )


def _omega_spec(config: RunConfig, default_count: int) -> OmegaSpec:
    count = config.values.get("omega_count")
    fraction = config.values.get("omega_fraction")
    if count is None and fraction is None:
        count = default_count
    return OmegaSpec(
        strategy=config.get("omega_strategy"), count=count, fraction=fraction, seed=config.seed
    )


def _networks(config: RunConfig):
    aw_path = config.values.get("awareness_edges")
    ct_path = config.values.get("contact_edges")
    if aw_path and ct_path:
        return build_multiplex(read_edge_list(aw_path), read_edge_list(ct_path))
    ba_seed, ws_seed = np.random.SeedSequence(config.seed, spawn_key=(0,)).spawn(2)
    return build_multiplex(
        generate_ba(config.get("n"), config.get("ba_m"), seed=ba_seed),
        generate_ws(config.get("n"), config.get("ws_k"), config.get("ws_p"), seed=ws_seed),
    )


def _experiment_spec(config: RunConfig, lambdas, betas) -> ExperimentSpec:
    omega = _omega_spec(config, default_count=20)
    return ExperimentSpec(
        n=config.get("n"),
        ba_m=config.get("ba_m"),
        ws_k=config.get("ws_k"),
        ws_p=config.get("ws_p"),
        lambdas=tuple(lambdas),
        betas=tuple(betas),
        delta=config.get("delta"),
        mu=config.get("mu"),
        gamma=_gamma(config, betas),
        initial_infected_fraction=config.get("initial_infected_fraction"),
        omega=omega,
        replications=config.get("replications"),
        master_seed=config.seed,
        fresh_networks=config.get("fresh_networks"),
        max_steps=config.get("max_steps"),
        tail_window=config.get("tail_window"),
    )


def _write_manifest(config: RunConfig, outputs, extra, wall_time):
    manifest = {
        "version": __version__,
        "subcommand": config.subcommand,
        "master_seed": config.seed,
        "jobs": config.jobs,
        "config": {k: v for k, v in sorted(config.values.items())},
        "outputs": outputs,
        "wall_time_s": wall_time,
    }
    manifest.update(extra)
    path = os.path.join(config.out_dir, "manifest.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path


def _generate(config: RunConfig, out) -> dict:
    net = _networks(config)
    write_edge_list(net.awareness_layer, out("awareness.edges"))
    write_edge_list(net.contact_layer, out("contact.edges"))
    return {
        "nodes": net.node_count,
        "awareness_edges": net.awareness_layer.edge_count,
        "contact_edges": net.contact_layer.edge_count,
    }


def _mmca_inputs(config: RunConfig):
    """The multiplex, dynamics parameters and silenced set of threshold and mmca."""
    net = _networks(config)
    params = _dynamics_params(config)
    omega_set = select_omega(_omega_spec(config, default_count=0), net.awareness_layer)
    return net, params, omega_set


def _threshold(config: RunConfig, out) -> dict:
    net, params, omega_set = _mmca_inputs(config)
    result = epidemic_threshold(net, params, omega_set=omega_set, tol=config.get("tol"))
    write_threshold_csv(result, params, out("threshold.csv"))
    write_node_csv(out("p_a.csv"), ("p_a",), (result.p_a,))
    if len(omega_set):
        write_omega_set(omega_set, out("omega.txt"))
    return {"beta_c": result.beta_c, "lambda_max_H": result.lambda_max}


def _mmca(config: RunConfig, out) -> dict:
    net, params, omega_set = _mmca_inputs(config)
    state = mmca_run(net, omega_set, params, tol=config.get("tol"))
    write_node_csv(out("mmca_states.csv"), COMPONENTS, [getattr(state, c) for c in COMPONENTS])
    if len(omega_set):
        write_omega_set(omega_set, out("omega.txt"))
    return {**state.rho(), "iterations": state.step}


def _experiment_outputs(result, path) -> dict:
    result.write_csv(path)
    return {"non_absorbed_runs": result.non_absorbed}


def _heatmap(config: RunConfig, out) -> dict:
    grid = tuple(np.linspace(0.0, 1.0, 21))
    lambdas = config.values.get("lambdas", grid)
    spec = _experiment_spec(config, lambdas, config.values.get("betas", grid))
    return _experiment_outputs(heatmap_experiment(spec, jobs=config.jobs), out("heatmap.csv"))


def _timeseries(config: RunConfig, out) -> dict:
    betas = config.values.get("betas", (0.2, 0.5, 0.8))
    lam = config.get("lambda")
    spec = _experiment_spec(config, (lam,), betas)
    result = timeseries_experiment(spec, lam, betas, jobs=config.jobs)
    return _experiment_outputs(result, out("timeseries.csv"))


def _sweep(config: RunConfig, out) -> dict:
    spec = _experiment_spec(config, (config.get("lambda"),), (config.get("beta_u"),))
    result = omega_ratio_sweep(
        spec, config.get("strategies"), config.get("fractions"), jobs=config.jobs
    )
    return _experiment_outputs(result, out("sweep.csv"))


_RUNNERS = {
    "generate": _generate,
    "threshold": _threshold,
    "mmca": _mmca,
    "heatmap": _heatmap,
    "timeseries": _timeseries,
    "sweep": _sweep,
}


def run(config: RunConfig) -> int:
    """Execute one subcommand; returns the process exit status."""
    os.makedirs(config.out_dir, exist_ok=True)
    started = time.monotonic()
    outputs = []

    def out(name):
        outputs.append(name)
        return os.path.join(config.out_dir, name)

    extra = _RUNNERS[config.subcommand](config, out)
    status = 1 if extra.get("non_absorbed_runs") else 0
    extra["status"] = "ok" if status == 0 else "partial"
    _write_manifest(config, outputs, extra, round(time.monotonic() - started, 3))
    return status


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muxepi",
        description="Awareness-disease coupled spreading on two-layer multiplex networks",
    )
    parser.add_argument("--version", action="version", version=f"muxepi {__version__}")
    parser.add_argument("subcommand", nargs="?", choices=SUBCOMMANDS)
    parser.add_argument("--config", metavar="PATH", help="key-value config file")
    parser.add_argument("--out", metavar="DIR", help="output directory (default: .)")
    parser.add_argument("--seed", type=int, metavar="U64", help="master seed (env MUXEPI_SEED fallback)")
    parser.add_argument("--jobs", type=int, metavar="N", help="worker parallelism cap")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config key (repeatable; flags win over the file)",
    )
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    overrides = {}
    try:
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            overrides[key.strip()] = value.strip()
        config = parse_config(
            path=args.config,
            overrides=overrides,
            subcommand=args.subcommand,
            out_dir=args.out,
            seed=args.seed,
            jobs=args.jobs,
        )
        return run(config)
    except ConfigError as exc:
        print(f"muxepi: config error: {exc}", file=sys.stderr)
        return 2
    except MuxepiError as exc:
        print(f"muxepi: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InvalidArgumentError) else 1


if __name__ == "__main__":
    sys.exit(main())
