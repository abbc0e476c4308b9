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
from .errors import ConfigError, MuxepiError
from .experiments import (
    ExperimentSpec,
    heatmap_experiment,
    omega_ratio_sweep,
    timeseries_experiment,
)
from .graph import build_multiplex, generate_ba, generate_ws, read_edge_list, write_edge_list
from .mmca import (
    epidemic_threshold,
    mmca_run,
    write_fixed_point_csv,
    write_threshold_csv,
)
from .selection import STRATEGIES, OmegaSpec, select_omega, write_omega_set

SUBCOMMANDS = ("generate", "mmca", "threshold", "heatmap", "timeseries", "sweep")

_FLOAT_KEYS = {
    "ws_p",
    "lambda",
    "beta_u",
    "beta_a",
    "gamma",
    "delta",
    "mu",
    "initial_infected_fraction",
    "omega_fraction",
    "tol",
}
_RATE_KEYS = {"ws_p", "lambda", "beta_u", "beta_a", "gamma", "delta", "mu"}
_INT_KEYS = {"n", "ba_m", "ws_k", "max_steps", "replications", "seed", "omega_count", "tail_window"}
_LIST_KEYS = {"lambdas", "betas", "fractions", "strategies"}
_STR_KEYS = {"subcommand", "omega_strategy", "awareness_edges", "contact_edges", "out"}
_BOOL_KEYS = {"fresh_networks"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _LIST_KEYS | _STR_KEYS | _BOOL_KEYS

_DEFAULTS = {
    "n": 10000,
    "ba_m": 4,
    "ws_k": 4,
    "ws_p": 0.1,
    "lambda": 0.5,
    "gamma": 0.5,
    "delta": 0.04,
    "mu": 0.06,
    "initial_infected_fraction": 0.001,
    "max_steps": 100_000,
    "replications": 10,
    "tail_window": 100,
    "fresh_networks": True,
    "tol": 1e-9,
}


@dataclass
class RunConfig:
    subcommand: str
    out_dir: str
    seed: int
    jobs: int
    values: dict = field(default_factory=dict)

    def get(self, key, default=None):
        return self.values.get(key, _DEFAULTS.get(key, default))


def _parse_value(key: str, raw: str, where: str):
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key in _BOOL_KEYS:
            low = raw.strip().lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if key in _LIST_KEYS:
            items = [p.strip() for p in raw.split(",") if p.strip()]
            if key == "strategies":
                return tuple(items)
            return tuple(float(p) for p in items)
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse value {raw!r} for key {key!r}") from exc


def _check_range(key: str, value, where: str):
    if key in _RATE_KEYS and not 0.0 <= value <= 1.0:
        raise ConfigError(f"{where}: {key}={value} outside range [0,1]")
    if key in ("lambdas", "betas", "fractions"):
        for v in value:
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{where}: {key} entry {v} outside range [0,1]")
    if key == "omega_strategy" and value not in STRATEGIES:
        raise ConfigError(f"{where}: unknown omega_strategy {value!r}")
    if key == "subcommand" and value not in SUBCOMMANDS:
        raise ConfigError(f"{where}: unknown subcommand {value!r}")


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
        if key not in _ALL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        where = f"{path}:{lineno}"
        value = _parse_value(key, raw.strip(), where)
        _check_range(key, value, where)
        sections[current][key] = value
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
        for key, value in sections["common"].items():
            values[key] = value
        sub = subcommand or values.get("subcommand")
        if sub and sub in sections:
            for key, value in sections[sub].items():
                values[key] = value
    for key, raw in (overrides or {}).items():
        if key not in _ALL_KEYS:
            raise ConfigError(f"--set: unknown key {key!r}")
        value = _parse_value(key, raw, f"--set {key}")
        _check_range(key, value, f"--set {key}")
        values[key] = value
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


def _dynamics_params(config: RunConfig, lam=None, beta_u=None) -> DynamicsParams:
    lam = config.get("lambda") if lam is None else lam
    beta_u = beta_u if beta_u is not None else config.get("beta_u", 0.2)
    beta_a = config.values.get("beta_a")
    gamma = beta_a / beta_u if beta_a is not None and beta_u > 0 else config.get("gamma")
    return DynamicsParams(
        lam=lam,
        delta=config.get("delta"),
        beta_u=beta_u,
        gamma=gamma,
        mu=config.get("mu"),
        initial_infected_fraction=config.get("initial_infected_fraction"),
        max_steps=config.get("max_steps"),
    )


def _omega_spec(config: RunConfig, default_strategy="random", default_count=20) -> OmegaSpec:
    strategy = config.get("omega_strategy", default_strategy)
    count = config.values.get("omega_count")
    fraction = config.values.get("omega_fraction")
    if count is None and fraction is None:
        count = default_count
    return OmegaSpec(strategy=strategy, count=count, fraction=fraction, seed=config.seed)


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


def _experiment_spec(config: RunConfig, lambdas, betas, omega: OmegaSpec) -> ExperimentSpec:
    beta_a = config.values.get("beta_a")
    gamma = config.get("gamma")
    if beta_a is not None and betas and betas[0] > 0:
        gamma = beta_a / betas[0]
    return ExperimentSpec(
        n=config.get("n"),
        ba_m=config.get("ba_m"),
        ws_k=config.get("ws_k"),
        ws_p=config.get("ws_p"),
        lambdas=tuple(lambdas),
        betas=tuple(betas),
        delta=config.get("delta"),
        mu=config.get("mu"),
        gamma=gamma,
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


def run(config: RunConfig) -> int:
    """Execute one subcommand; returns the process exit status."""
    os.makedirs(config.out_dir, exist_ok=True)
    started = time.monotonic()
    outputs = []
    extra: dict = {}
    status = 0

    def out(name):
        p = os.path.join(config.out_dir, name)
        outputs.append(name)
        return p

    if config.subcommand == "generate":
        net = _networks(config)
        write_edge_list(net.awareness_layer, out("awareness.edges"))
        write_edge_list(net.contact_layer, out("contact.edges"))
        extra["nodes"] = net.node_count
        extra["awareness_edges"] = net.awareness_layer.edge_count
        extra["contact_edges"] = net.contact_layer.edge_count

    elif config.subcommand == "threshold":
        net = _networks(config)
        params = _dynamics_params(config)
        omega = _omega_spec(config, default_count=0)
        omega_set = select_omega(omega, net.awareness_layer)
        result = epidemic_threshold(
            net, params, omega_set=omega_set, tol=config.get("tol")
        )
        write_threshold_csv(result, params, out("threshold.csv"))
        write_fixed_point_csv(result.p_a, out("p_a.csv"))
        if len(omega_set):
            write_omega_set(omega_set, out("omega.txt"))
        extra["beta_c"] = result.beta_c
        extra["lambda_max_H"] = result.lambda_max

    elif config.subcommand == "mmca":
        net = _networks(config)
        params = _dynamics_params(config)
        omega = _omega_spec(config, default_count=0)
        omega_set = select_omega(omega, net.awareness_layer)
        state = mmca_run(net, omega_set, params, tol=config.get("tol"))
        with open(out("mmca_states.csv"), "w", encoding="ascii") as fh:
            fh.write("node,p_us,p_as,p_ai,p_ur,p_ar,p_ui\n")
            for i in range(net.node_count):
                fh.write(
                    f"{i},{float(state.p_us[i])!r},{float(state.p_as[i])!r},"
                    f"{float(state.p_ai[i])!r},{float(state.p_ur[i])!r},"
                    f"{float(state.p_ar[i])!r},{float(state.p_ui[i])!r}\n"
                )
        if len(omega_set):
            write_omega_set(omega_set, out("omega.txt"))
        extra.update(state.rho())
        extra["iterations"] = state.step

    elif config.subcommand == "heatmap":
        grid = tuple(np.linspace(0.0, 1.0, 21))
        lambdas = config.values.get("lambdas", grid)
        betas = config.values.get("betas", grid)
        omega = _omega_spec(config)
        spec = _experiment_spec(config, lambdas, betas, omega)
        result = heatmap_experiment(spec, jobs=config.jobs)
        result.write_csv(out("heatmap.csv"))
        extra["non_absorbed_runs"] = result.non_absorbed
        if result.non_absorbed:
            status = 1

    elif config.subcommand == "timeseries":
        betas = config.values.get("betas", (0.2, 0.5, 0.8))
        omega = _omega_spec(config)
        lam = config.get("lambda")
        spec = _experiment_spec(config, (lam,), betas, omega)
        result = timeseries_experiment(spec, lam, betas, jobs=config.jobs)
        result.write_csv(out("timeseries.csv"))
        extra["non_absorbed_runs"] = result.non_absorbed
        if result.non_absorbed:
            status = 1

    elif config.subcommand == "sweep":
        strategies = config.values.get(
            "strategies", ("degree_top", "random", "degree_bottom")
        )
        fractions = config.values.get("fractions", (0.0, 0.1, 0.2, 0.3, 0.4, 0.5))
        lam = config.get("lambda", 0.3)
        beta_u = config.get("beta_u", 0.2)
        omega = _omega_spec(config)
        spec = _experiment_spec(config, (lam,), (beta_u,), omega)
        result = omega_ratio_sweep(spec, strategies, fractions, jobs=config.jobs)
        result.write_csv(out("sweep.csv"))
        extra["non_absorbed_runs"] = result.non_absorbed
        if result.non_absorbed:
            status = 1

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
    except ConfigError as exc:
        print(f"muxepi: config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except MuxepiError as exc:
        print(f"muxepi: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
