"""Command-line entry point.

One subcommand per run: generate, mmca, threshold, heatmap, timeseries, sweep.
Parameters come from a flat key-value config file with optional per-subcommand
sections; --set overrides the file and flags override --set; all randomness
flows from one master seed.
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
from .errors import ConfigError, InvalidArgumentError, MuxepiError
from .experiments import (
    ExperimentSpec,
    heatmap_experiment,
    omega_ratio_sweep,
    replication_multiplex,
    replication_omega,
    timeseries_experiment,
)
# cli.generate_ba stays bound: perfbench's tracer test looks the generator up in every module.
from .graph import build_multiplex, generate_ba, read_edge_list, write_edge_list  # noqa: F401
from .mmca import (
    COMPONENTS, DEFAULT_TOL, epidemic_threshold, mmca_run, write_node_csv, write_threshold_csv)
from .selection import STRATEGIES, OmegaSpec, write_omega_set

SUBCOMMANDS = ("generate", "mmca", "threshold", "heatmap", "timeseries", "sweep")
_SPEC = ExperimentSpec()  # the model's defaults, each written once, in experiments.py

# key -> (kind, default). A kind is a tag, or the tuple of allowed strings.
# A None default leaves the key unset unless given: seed and out fall back in
# parse_config, and the subcommand that reads the key owns its fallback
# (lambdas, betas, omega_count).
_KEYS = {
    "subcommand": (SUBCOMMANDS, None),
    "seed": ("int", None),
    "out": ("str", None),
    "n": ("int", _SPEC.n),
    "ba_m": ("int", _SPEC.ba_m),
    "ws_k": ("int", _SPEC.ws_k),
    "ws_p": ("rate", _SPEC.ws_p),
    "awareness_edges": ("str", None),
    "contact_edges": ("str", None),
    "lambda": ("rate", _SPEC.lambdas[0]),
    "beta_u": ("rate", _SPEC.betas[0]),
    "beta_a": ("rate", None),
    "gamma": ("rate", _SPEC.gamma),
    "delta": ("rate", _SPEC.delta),
    "mu": ("rate", _SPEC.mu),
    "initial_infected_fraction": ("float", _SPEC.initial_infected_fraction),
    "max_steps": ("int", _SPEC.max_steps),
    "tol": ("float", DEFAULT_TOL),
    "omega_strategy": (STRATEGIES, _SPEC.omega.strategy),
    "omega_count": ("int", None),
    "omega_fraction": ("float", None),
    "lambdas": ("rates", None),
    "betas": ("rates", None),
    "strategies": ("names", ("degree_top", "random", "degree_bottom")),
    "fractions": ("rates", (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)),
    "replications": ("int", _SPEC.replications),
    "tail_window": ("int", _SPEC.tail_window),
}
# The keys that name ExperimentSpec fields; the first four build the multiplex.
_SPEC_KEYS = ("n", "ba_m", "ws_k", "ws_p", "delta", "mu", "initial_infected_fraction",
              "replications", "max_steps", "tail_window")


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
        elif kind in ("rates", "names"):
            items = tuple(p.strip() for p in raw.split(",") if p.strip())
            value = items if kind == "names" else tuple(float(p) for p in items)
        else:
            value = raw.strip()
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse value {raw!r} for key {key!r}") from exc
    if kind == "rate" and not 0.0 <= value <= 1.0:
        raise ConfigError(f"{where}: {key}={value} outside range [0,1]")
    if kind == "rates":
        for v in value:
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{where}: {key} entry {v} outside range [0,1]")
    if kind == "names":
        for v in value:
            if v not in STRATEGIES:
                raise ConfigError(f"{where}: unknown {key} entry {v!r}; choose from {STRATEGIES}")
    if isinstance(kind, tuple) and value not in kind:
        raise ConfigError(f"{where}: unknown {key} {value!r}")
    return value


def _read_config_file(path: str) -> dict:
    """Parse sectioned key-value text; returns {section: {key: (value, line)}}."""
    sections: dict = {"common": {}}
    current = "common"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
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
        if key == "subcommand" and current != "common":
            raise ConfigError(f"{path}:{lineno}: key 'subcommand' belongs in the common block")
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
    """Merge the config file, --set overrides and flags into a validated RunConfig.

    The subcommand is the argument, else --set's, else the common block's.
    Every key then takes the last value of, lowest first: the common block,
    that subcommand's section, --set, the flags. A seed given nowhere falls
    back to MUXEPI_SEED, then 0.
    """
    sections = _read_config_file(path) if path is not None else {"common": {}}
    sets = {key: _parse_value(key, raw, f"--set {key}") for key, raw in (overrides or {}).items()}
    sub = subcommand or sets.get("subcommand") or sections["common"].get("subcommand")
    if sub not in SUBCOMMANDS:
        hint = "no subcommand given (command line, --set or config 'subcommand' key)"
        raise ConfigError(f"unknown subcommand {sub!r}" if sub else hint)
    # What the file and --set gave, which the manifest records; the flags win over it.
    values = {**sections["common"], **sections.get(sub, {}), **sets, "subcommand": sub}
    flags = {"out": out_dir, "seed": seed}
    merged = {**values, **{k: v for k, v in flags.items() if v is not None}}
    name, seed = "seed", merged.get("seed")
    if seed is None:
        name, seed = "MUXEPI_SEED", os.environ.get("MUXEPI_SEED") or "0"
    if not str(seed).strip().isdecimal():
        raise ConfigError(f"{name} must be a non-negative integer, got {seed!r}")
    if jobs is not None and jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    return RunConfig(sub, merged.get("out") or ".", int(seed), jobs, values)


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


def _networks(config: RunConfig):
    aw_path = config.values.get("awareness_edges")
    ct_path = config.values.get("contact_edges")
    if aw_path and ct_path:
        return build_multiplex(read_edge_list(aw_path), read_edge_list(ct_path))
    if aw_path or ct_path:
        missing = "contact_edges" if aw_path else "awareness_edges"
        raise ConfigError(f"awareness_edges and contact_edges go together; {missing} is missing")
    return replication_multiplex(*(config.get(k) for k in _SPEC_KEYS[:4]), config.seed)


def _experiment_spec(config: RunConfig, lambdas, betas, default_count=_SPEC.omega.count):
    """The spec of the run; its silenced set has `default_count` nodes unless sized by a key."""
    count = config.values.get("omega_count")
    fraction = config.values.get("omega_fraction")
    if count is None and fraction is None:
        count = default_count
    omega = OmegaSpec(config.get("omega_strategy"), count=count, fraction=fraction)
    return ExperimentSpec(
        lambdas=tuple(lambdas),
        betas=tuple(betas),
        gamma=_gamma(config, betas),
        omega=omega,
        master_seed=config.seed,
        **{k: config.get(k) for k in _SPEC_KEYS},
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
    """The multiplex, parameters and replication 0's silenced set of threshold and mmca."""
    net = _networks(config)
    lam, beta_u = config.get("lambda"), config.get("beta_u")
    spec = _experiment_spec(config, (lam,), (beta_u,), default_count=0)
    omega_set = replication_omega(spec.omega, net.awareness_layer, config.seed)
    return net, spec.params(lam, beta_u), omega_set


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
    spec = _experiment_spec(config, (config.get("lambda"),), betas)
    result = timeseries_experiment(spec, jobs=config.jobs)
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
