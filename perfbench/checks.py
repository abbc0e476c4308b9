"""Content checks of one CLI invocation's outputs, independent of the muxepi package.

Each check returns a list of problems; an empty list means the invocation's
outputs are correct. The epidemic-threshold oracle rebuilds the damped contact
matrix from the written files and the requested rates, and solves it with
ARPACK, so it shares no code with muxepi's power iteration.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigs

SUM_TOL = 1e-9  # six MMCA components of a node sum to 1 within this
BETA_C_RTOL = 1e-6  # beta_c agrees with the oracle within this relative error
CLI_DEFAULT_MU = 0.06  # recovery rate of an invocation that does not set `mu`


def settings_dict(settings) -> dict[str, str]:
    return dict(item.split("=", 1) for item in settings)


def _rows(path: str) -> list[dict]:
    with open(path, encoding="ascii") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _out_of_unit(rows, columns) -> list[str]:
    return [
        f"{col}={row[col]} outside [0,1]"
        for row in rows
        for col in columns
        if not 0.0 <= float(row[col]) <= 1.0
    ]


def _floats(settings: dict, key: str) -> list[float]:
    return [float(v) for v in settings[key].split(",")]


def check_heatmap(out_dir, settings, manifest):
    rows = _rows(os.path.join(out_dir, "heatmap.csv"))
    want = len(_floats(settings, "lambdas")) * len(_floats(settings, "betas"))
    problems = [] if len(rows) == want else [f"heatmap.csv has {len(rows)} rows, want {want}"]
    return problems + _out_of_unit(rows, ("lambda", "beta_u", "mean_rho_r", "std_rho_r"))


def check_sweep(out_dir, settings, manifest):
    rows = _rows(os.path.join(out_dir, "sweep.csv"))
    want = len(settings["strategies"].split(",")) * len(_floats(settings, "fractions"))
    problems = [] if len(rows) == want else [f"sweep.csv has {len(rows)} rows, want {want}"]
    return problems + _out_of_unit(rows, ("fraction", "mean_rho_r", "std_rho_r"))


def check_timeseries(out_dir, settings, manifest):
    """One block per beta, steps 0..T-1 with T covering at least the absorbed tail."""
    rows = _rows(os.path.join(out_dir, "timeseries.csv"))
    problems = _out_of_unit(rows, ("beta_u", "rho_R", "rho_A"))
    tail = int(settings.get("tail_window", 100))
    steps: dict[float, list[int]] = {}
    for row in rows:
        steps.setdefault(float(row["beta_u"]), []).append(int(row["step"]))
    if sorted(steps) != sorted(_floats(settings, "betas")):
        problems.append(f"timeseries.csv betas {sorted(steps)}, want {settings['betas']}")
    for beta, seq in steps.items():
        if seq != list(range(len(seq))) or len(seq) < tail + 2:
            problems.append(f"timeseries.csv beta {beta}: {len(seq)} rows, not steps 0..T-1 with T>{tail}")
    return problems


def check_mmca(out_dir, settings, manifest):
    data = np.loadtxt(os.path.join(out_dir, "mmca_states.csv"), delimiter=",", skiprows=1, ndmin=2)
    problems = []
    n = read_node_count(settings["awareness_edges"])
    if data.shape != (n, 7) or not np.array_equal(data[:, 0], np.arange(n)):
        return [f"mmca_states.csv has shape {data.shape}, want ({n}, 7) indexed 0..{n - 1}"]
    err = np.abs(data[:, 1:].sum(axis=1) - 1.0)
    if err.max() > SUM_TOL:
        problems.append(f"node {int(err.argmax())}: components sum off 1 by {err.max():.3g}")
    omega = np.loadtxt(os.path.join(out_dir, "omega.txt"), dtype=np.int64, ndmin=1)
    if len(omega) != int(settings["omega_count"]):
        problems.append(f"omega.txt has {len(omega)} nodes, want {settings['omega_count']}")
    aware = data[omega][:, [2, 3, 5]]  # p_as, p_ai, p_ar
    if np.any(aware != 0.0):
        problems.append("a silenced node has non-zero p_as, p_ai or p_ar")
    return problems


def read_node_count(edges_path: str) -> int:
    with open(edges_path, encoding="ascii") as fh:
        return int(fh.readline().split("=", 1)[1])


def oracle_beta_c(p_a_path: str, contact_path: str, gamma: float, mu: float) -> float:
    """mu / Lambda_max(diag(1 - (1-gamma) p_a) B) with B read from the edge list."""
    n = read_node_count(contact_path)
    edges = np.loadtxt(contact_path, dtype=np.int64, skiprows=1, ndmin=2)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    b = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    p_a = np.loadtxt(p_a_path, delimiter=",", skiprows=1, ndmin=2)
    if not np.array_equal(p_a[:, 0], np.arange(n)):
        raise ValueError(f"{p_a_path} is not indexed 0..{n - 1}")
    h = sparse.diags(1.0 - (1.0 - gamma) * p_a[:, 1]) @ b
    vals = eigs(h, k=1, which="LR", v0=np.ones(n), return_eigenvectors=False)
    return mu / float(vals[0].real)


def check_threshold(out_dir, settings, manifest):
    """beta_c against the oracle at the requested gamma and mu, not the ones muxepi wrote."""
    (row,) = _rows(os.path.join(out_dir, "threshold.csv"))
    rates = {"gamma": float(settings["gamma"]), "mu": float(settings.get("mu", CLI_DEFAULT_MU))}
    problems = [
        f"threshold.csv {key}={row[key]}, requested {value!r}"
        for key, value in rates.items()
        if not math.isclose(float(row[key]), value, rel_tol=1e-12)
    ]
    want = oracle_beta_c(os.path.join(out_dir, "p_a.csv"), settings["contact_edges"], rates["gamma"], rates["mu"])
    got = float(row["beta_c"])
    if abs(got - want) > BETA_C_RTOL * abs(want):
        problems.append(f"beta_c {got!r} differs from oracle {want!r} by more than {BETA_C_RTOL:g} relative")
    return problems


def check_generate(out_dir, settings, manifest):
    problems = []
    for name, count_key in (("awareness.edges", "awareness_edges"), ("contact.edges", "contact_edges")):
        path = os.path.join(out_dir, name)
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        if lines[0] != f"# nodes={settings['n']}" or len(lines) - 1 != manifest.get(count_key):
            problems.append(f"{name}: header {lines[0]!r}, {len(lines) - 1} edges, manifest {manifest.get(count_key)}")
    return problems


CHECKS = {
    "generate": check_generate,
    "threshold": check_threshold,
    "mmca": check_mmca,
    "heatmap": check_heatmap,
    "sweep": check_sweep,
    "timeseries": check_timeseries,
}


def check_outputs(subcommand: str, settings, out_dir: str) -> list[str]:
    """Problems with the files of one invocation that exited 0.

    `settings` are the KEY=VALUE strings the invocation was run with.
    """
    try:
        with open(os.path.join(out_dir, "manifest.json"), encoding="ascii") as fh:
            manifest = json.load(fh)
        return CHECKS[subcommand](out_dir, settings_dict(settings), manifest)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]
