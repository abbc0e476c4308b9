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
from itertools import chain

from . import __version__
from .errors import ConfigError, InvalidArgumentError, MuxepiError, check_range
from .experiments import (
    ExperimentSpec,
    heatmap_experiment,
    omega_ratio_sweep,
    replication_multiplex,
    replication_omega,
    timeseries_experiment,
)
# cli.generate_ba stays bound: perfbench's tracer test looks the generator up in every module.
from .graph import (  # noqa: F401
    MultiplexNetwork, generate_ba, read_edge_list, write_edge_list, write_lines)
from .mmca import COMPONENTS, DEFAULT_TOL, epidemic_threshold, mmca_run
from .selection import STRATEGIES, OmegaSpec

SUBCOMMANDS = ("generate", "mmca", "threshold", "heatmap", "timeseries", "sweep")
_SPEC = ExperimentSpec()  # the model's defaults, each written once, in experiments.py

# key -> domain: "path", a tuple of allowed strings, (type, low, high[, brackets]) as
# check_range reads them, or [d]: comma-separated entries each in d. The defaults are
# each subcommand's, in _COMMANDS; lambda and beta_u are never stored.
_RATE, _OPEN_RATE = (float, 0.0, 1.0), (float, 0.0, 1.0, "()")
_KEYS = {
    "subcommand": SUBCOMMANDS,
    "seed": (int, 0, None),
    "out": "path",
    "n": (int, 1, None),
    "ba_m": (int, 1, None),
    "ws_k": (int, 2, None),
    "ws_p": _RATE,
    "awareness_edges": "path",
    "contact_edges": "path",
    "lambda": _RATE,
    "beta_u": _RATE,
    "gamma": _RATE,
    "delta": _RATE,
    "mu": _RATE,
    "initial_infected_fraction": _OPEN_RATE,
    "max_steps": (int, 1, None),
    "tol": _OPEN_RATE,
    "omega_strategy": STRATEGIES,
    "omega_count": (int, 0, None),
    "omega_fraction": _RATE,
    "lambdas": [_RATE],
    "betas": [_RATE],
    "strategies": [STRATEGIES],
    "fractions": [_RATE],
    "replications": (int, 1, None),
    "tail_window": (int, 0, None),
}
# The one-value spelling of each rate axis: _parse_value stores lambda=x as lambdas=(x,).
_AXES = {"lambda": "lambdas", "beta_u": "betas"}


@dataclass
class RunConfig:
    subcommand: str
    out_dir: str
    seed: int
    jobs: int
    spec: ExperimentSpec  # the record as the library reads it, built and checked once
    values: dict = field(default_factory=dict)  # the run's record: see parse_config

    def get(self, key):
        return self.values.get(key)


def _check(key: str, raw: str, domain, where: str, label: str):
    """`raw` read into `domain`; a value outside it raises a ConfigError naming `label`."""
    if isinstance(domain, list):
        entries = (p.strip() for p in raw.split(","))
        return tuple(_check(key, p, domain[0], where, f"{key} entry") for p in entries if p)
    if domain == "path":
        if "\0" in raw:
            raise ConfigError(f"{where}: {label} holds a NUL character")
        if not raw:
            raise ConfigError(f"{where}: {label} is empty")
        return raw
    if isinstance(domain[0], str):
        if raw not in domain:
            raise ConfigError(f"{where}: unknown {label} {raw!r}; choose from {domain}")
        return raw
    kind, low, high, *bounds = domain
    try:
        value = kind(raw) + 0  # + 0 turns -0.0 into 0.0, so both spellings store the same bytes
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse value {raw!r} for key {key!r}") from exc
    return check_range(f"{where}: {label}", value, low, high, ConfigError, *bounds)


def _reads(sub: str, key: str) -> bool:
    """Whether `sub` reads `key`; lambda and beta_u follow their axes."""
    return key in ("subcommand", "seed", "out") or _AXES.get(key, key) in _COMMANDS[sub][1]


def _parse_value(key: str, raw: str, where: str):
    if key not in _KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    value = _check(key, raw.strip(), _KEYS[key], where, key)
    return (_AXES[key], (value,)) if key in _AXES else (key, value)


def _read_config_file(path: str) -> dict:
    """Parse sectioned key-value text; returns {section: {key: parsed value}}."""
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
        sections[current].update([_parse_value(key, raw.strip(), f"{path}:{lineno}")])
        if current != "common" and not _reads(current, key):
            raise ConfigError(f"{path}:{lineno}: {current} reads no {key}")
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

    The subcommand is the argument, else --set's, else the common block's. Every key
    it reads then takes the last value of, lowest first: its default in _COMMANDS, the
    common block, that subcommand's section, --set, the flags; the common block's other
    keys are skipped, and a section or --set that holds one exits 2. Edge files make n,
    ba_m, ws_k and ws_p such keys. A seed given nowhere falls back to MUXEPI_SEED, then 0.
    The run's record, `values`, holds each key of its _COMMANDS entry that is set, and
    the seed, sorted; a given omega_fraction unsets omega_count's default. `spec` is
    that record's ExperimentSpec, so its checks too run before any output exists, as
    does the one-entry rule of each axis the runner reads once.
    """
    sections = _read_config_file(path) if path is not None else {"common": {}}
    sets = dict(_parse_value(key, raw, f"--set {key}") for key, raw in (overrides or {}).items())
    sub = subcommand or sets.get("subcommand") or sections["common"].get("subcommand")
    if sub not in SUBCOMMANDS:
        hint = "no subcommand given (command line, --set or config 'subcommand' key)"
        raise ConfigError(f"unknown subcommand {sub!r}" if sub else hint)
    unread = [key for key in overrides or {} if not _reads(sub, key)]
    if unread:
        raise ConfigError(f"--set {unread[0]}: {sub} reads no {unread[0]}")
    common = {k: v for k, v in sections["common"].items() if _reads(sub, k)}
    given = {**common, **sections.get(sub, {}), **sets}
    seed = _parse_value("seed", str(seed), "--seed")[1] if seed is not None else given.get("seed")
    if seed is None:
        seed = _parse_value("seed", os.environ.get("MUXEPI_SEED") or "0", "MUXEPI_SEED")[1]
    out = _parse_value("out", out_dir, "--out")[1] if out_dir is not None else given.get("out")
    if jobs is not None:
        check_range("--jobs", jobs, 1, error=ConfigError)
    defaults = dict(_COMMANDS[sub][1])
    if "omega_fraction" in given:
        if "omega_count" in given:
            raise ConfigError("omega_count and omega_fraction are both given; give one")
        defaults["omega_count"] = None
    if ("awareness_edges" in given) != ("contact_edges" in given):
        missing = "awareness_edges" if "contact_edges" in given else "contact_edges"
        raise ConfigError(f"awareness_edges and contact_edges go together; {missing} is missing")
    if "awareness_edges" in given:  # the files fix the network
        sized = [k for k in _NET if k in sets or k in sections.get(sub, {})]
        if sized:
            raise ConfigError(f"{sized[0]}: {sub} reads no {sized[0]} with edge files")
        defaults = {k: v for k, v in defaults.items() if k not in _NET}
    record = {k: given.get(k, default) for k, default in defaults.items()} | {"seed": seed}
    values = {k: v for k, v in sorted(record.items()) if v is not None}
    n, got = values.get("n"), values.get  # a run that builds its own layers needs sizes that fit n
    for key, bad, rule in (("ws_k", got("ws_k") % 2, "must be even"),
                           ("ws_k", got("ws_k") >= n, f"must be below n ({n})"),
                           ("ba_m", got("ba_m") > n, f"must be at most n ({n})"),
                           ("omega_count", got("omega_count", 0) > n, f"must be at most n ({n})")
                           ) if n else ():
        if bad:
            raise ConfigError(f"{key} {rule}, got {values[key]}")
    if sub == "threshold" and values["mu"] == 0:  # beta_c = mu / Lambda_max would be 0
        raise ConfigError(f"mu must be above 0 for threshold, got {values['mu']}")
    spec = _experiment_spec(seed, values)
    for axis in ("lambdas", "betas"):
        if len(defaults.get(axis, ())) == 1:  # the runner reads the axis's one entry
            spec.only(axis)
    return RunConfig(sub, out or ".", seed, jobs or os.cpu_count() or 1, spec, values)


def _networks(config: RunConfig):
    aw_path, ct_path = config.get("awareness_edges"), config.get("contact_edges")
    if aw_path:  # parse_config lets no edge file through alone
        return MultiplexNetwork(read_edge_list(aw_path), read_edge_list(ct_path))
    return replication_multiplex(*(config.get(k) for k in _NET), config.seed)


def _experiment_spec(seed: int, values: dict) -> ExperimentSpec:
    """The spec of a run's record; the omega_* keys are its OmegaSpec's fields."""
    fields = {k: v for k, v in values.items() if k in ExperimentSpec.__dataclass_fields__}
    omega = {k.removeprefix("omega_"): v for k, v in values.items() if k.startswith("omega_")}
    if omega:
        fields["omega"] = OmegaSpec(**omega)
    return ExperimentSpec(master_seed=seed, **fields)


def _write_manifest(config: RunConfig, outputs, extra, wall_time):
    manifest = {
        "version": __version__,
        "subcommand": config.subcommand,
        "master_seed": config.seed,
        "jobs": config.jobs,
        "config": config.values,
        "outputs": outputs,
        "wall_time_s": wall_time,
    }
    text = json.dumps({**manifest, **extra}, indent=2, sort_keys=True, default=str)
    write_lines(os.path.join(config.out_dir, "manifest.json"), [text])


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
    spec, net = config.spec, _networks(config)
    if not net.node_count:  # no node to average over, and no spectrum
        raise InvalidArgumentError(f"{config.get('awareness_edges')}: the multiplex has no node")
    omega_set = replication_omega(spec.omega, net.awareness_layer, config.seed)
    return net, spec.params(spec.only("lambdas"), spec.only("betas")), omega_set


def _write_nodes(path, names, columns) -> None:
    """A `node,<names>` header, then one row per node of each column's float repr."""
    rows = zip(*(c.tolist() for c in columns))
    write_lines(path, chain([",".join(("node", *names))],
                            (f"{i},{','.join(map(repr, row))}" for i, row in enumerate(rows))))


def _threshold(config: RunConfig, out) -> dict:
    net, params, omega_set = _mmca_inputs(config)
    result = epidemic_threshold(net, params, omega_set=omega_set, tol=config.get("tol"))
    values = (params.gamma, params.lam, params.delta, params.mu, result.lambda_max, result.beta_c)
    write_lines(out("threshold.csv"),
                ("gamma,lambda,delta,mu,lambda_max_H,beta_c", ",".join(map(repr, values))))
    _write_nodes(out("p_a.csv"), ("p_a",), (result.p_a,))
    if len(omega_set):  # one node index a line, for audit and replay
        write_lines(out("omega.txt"), map(str, omega_set.tolist()))
    return {"beta_c": result.beta_c, "lambda_max_H": result.lambda_max}


def _mmca(config: RunConfig, out) -> dict:
    net, params, omega_set = _mmca_inputs(config)
    state = mmca_run(net, omega_set, params, tol=config.get("tol"))
    _write_nodes(out("mmca_states.csv"), COMPONENTS, [getattr(state, c) for c in COMPONENTS])
    if len(omega_set):
        write_lines(out("omega.txt"), map(str, omega_set.tolist()))
    return {**state.rho(), "iterations": state.step}


def _experiment_outputs(config: RunConfig, result, path, columns: str, rows=None) -> dict:
    """Write the experiment's CSV: line 1 is `# ` and the run's record, as the manifest's
    config holds it, then `columns` and each row, ending in the replication count. The
    rows default to each (rows[i], cols[j]) cell's labels and final rho_R mean and std."""
    if rows is None:
        means, stds = result.mean_rho_r.tolist(), result.std_rho_r.tolist()
        rows = (f"{r},{c},{means[i][j]!r},{stds[i][j]!r}"
                for i, r in enumerate(result.rows) for j, c in enumerate(result.cols))
    record = json.dumps(config.values, separators=(",", ":"))
    head = [f"# muxepi v{__version__} config={record}", f"{columns},replications"]
    reps = config.get("replications")
    write_lines(path, chain(head, (f"{row},{reps}" for row in rows)))
    return {"non_absorbed_runs": result.non_absorbed}


# The runners look the experiments up when called, so a wrapper patched in later is the one run.
def _heatmap(config: RunConfig, out) -> dict:
    result = heatmap_experiment(config.spec, jobs=config.jobs)
    return _experiment_outputs(config, result, out("heatmap.csv"),
                               "lambda,beta_u,mean_rho_r,std_rho_r")


def _timeseries(config: RunConfig, out) -> dict:
    result = timeseries_experiment(config.spec, jobs=config.jobs)
    rows = (f"{beta},{t},{rr!r},{ra!r}" for j, beta in enumerate(result.cols)
            for t, (rr, ra) in enumerate(result.mean_curves(j).tolist()))
    return _experiment_outputs(config, result, out("timeseries.csv"),
                               "beta_u,step,rho_R,rho_A", rows)


def _sweep(config: RunConfig, out) -> dict:
    result = omega_ratio_sweep(config.spec, jobs=config.jobs)
    return _experiment_outputs(config, result, out("sweep.csv"),
                               "strategy,fraction,mean_rho_r,std_rho_r")


def _model(*keys) -> dict:
    """The ExperimentSpec defaults of `keys`."""
    return {k: getattr(_SPEC, k) for k in keys}


# subcommand -> (runner, {each key it reads besides seed and out: its default}), from shared
# key groups. A None default leaves the key unset unless given.
_NET, _RATES = _model("n", "ba_m", "ws_k", "ws_p"), _model("lambdas", "gamma", "delta", "mu")
_EDGES = dict.fromkeys(("awareness_edges", "contact_edges"))
_OMEGA = {"omega_strategy": _SPEC.omega.strategy, "omega_count": _SPEC.omega.count,
          "omega_fraction": None}
_RUN = {**_NET, **_RATES,
        **_model("betas", "initial_infected_fraction", "max_steps", "replications")}
_SOLVE = {**_NET, **_EDGES, **_RATES, **_OMEGA, "omega_count": 0, "tol": DEFAULT_TOL}
_GRID = tuple(i / 20 for i in range(21))
_COMMANDS = {
    "generate": (_generate, {**_NET, **_EDGES}),
    "threshold": (_threshold, _SOLVE),
    "mmca": (_mmca, {**_SOLVE, **_model("betas", "initial_infected_fraction")}),
    "heatmap": (_heatmap, {**_RUN, **_OMEGA, "lambdas": _GRID, "betas": _GRID}),
    "timeseries": (_timeseries,
                   {**_RUN, **_OMEGA, "betas": (0.2, 0.5, 0.8), **_model("tail_window")}),
    "sweep": (_sweep, {**_RUN, **_model("strategies", "fractions")}),
}


def run(config: RunConfig) -> int:
    """Execute one subcommand; returns the process exit status."""
    try:
        os.makedirs(config.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {config.out_dir}: {exc.strerror}") from exc
    started = time.monotonic()
    outputs = []

    def out(name):
        outputs.append(name)
        return os.path.join(config.out_dir, name)

    extra = _COMMANDS[config.subcommand][0](config, out)
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
    parser.add_argument(
        "--seed", type=int, metavar="U64", help="master seed (env MUXEPI_SEED fallback)")
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
            key, value = (part.strip() for part in item.split("=", 1))
            overrides.pop(key, None)  # re-inserted last, so a repeated key keeps its last position
            overrides[key] = value
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
