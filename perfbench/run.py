"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload heatmap_n10k --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from `src/`, as the
test suite does. `--trace 0` prints the end-to-end metrics (set-up time,
median time of one operation, peak RSS, share of CLI invocations whose
outputs pass the checks); `--trace 1` prints the per-layer metrics of a traced
run. Times are scaled to a nominal host speed (see hostspeed.py). The last
stdout line is the JSON result; the line before it holds the provenance, the
raw samples and the sha256 of every output. Both are also written to
`.perfbench_out/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3  # fresh processes whose set-up time gives the setup_s median
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up spans reported apart from the per-operation ones.
SETUP_LAYER_METRICS = ("graph.generate_ba", "graph.generate_ws", "graph.Graph_init", "graph.write_edge_list")

sys.path.insert(0, str(HERE))
from hostspeed import Sampler  # noqa: E402
from workloads import WORKLOADS, argv, resolve  # noqa: E402


def set_up(workload, work_dir: Path, seed: int, tracer=None):
    """Import the package and build the workload's reused inputs.

    Returns (start, end, cli module, {set-up name: output dir}, invocation
    records), with start and end as `time.perf_counter()` readings.
    """
    start = time.perf_counter()
    cli = importlib.import_module("muxepi.cli")
    if tracer is not None:
        tracer.install()
    setup_dirs: dict[str, str] = {}
    records = []
    for inv in workload.setup:
        out_dir = work_dir / "setup" / inv.name
        records.append(invoke(cli, inv, seed, out_dir, setup_dirs))
        setup_dirs[inv.name] = str(out_dir)
    return start, time.perf_counter(), cli, setup_dirs, records


def invoke(cli, inv, seed: int, out_dir: Path, setup_dirs) -> dict:
    """Run one CLI invocation in-process; returns its wall time and exit status."""
    shutil.rmtree(out_dir, ignore_errors=True)
    settings = resolve(inv, setup_dirs)
    args = argv(inv.subcommand, settings, seed, str(out_dir))
    start = time.perf_counter()
    try:
        status = cli.main(args)
    except Exception:  # a crash is one failed invocation; the run goes on
        traceback.print_exc()
        status = -1
    wall = time.perf_counter() - start
    return {"inv": inv, "settings": settings, "out_dir": str(out_dir), "wall_s": wall, "status": status}


def fingerprint(record: dict, reference: dict, distinct: dict) -> None:
    """Exit status, manifest status and sha256 of one invocation's outputs.

    Adds `problems`, `hashes` and `bytes` to the record. The first hashes seen
    for an invocation name become its reference. `distinct` maps each distinct
    (name, outputs) pair to the first record that wrote it; a later copy of
    the same outputs is deleted, so `content_check` reads each one once. This
    uses only json and hashlib, so the checks add nothing to `peak_rss_mb`.
    """
    name, out_dir = record["inv"].name, record["out_dir"]
    record.update(problems=[], hashes={}, bytes=0)
    if record["status"] != 0:
        record["problems"].append(f"exit status {record['status']}")
        return
    try:
        with open(os.path.join(out_dir, "manifest.json"), encoding="ascii") as fh:
            manifest = json.load(fh)
        for output in manifest.get("outputs", []):  # not the manifest itself: it holds a wall time
            with open(os.path.join(out_dir, output), "rb") as fh:
                record["hashes"][output] = hashlib.sha256(fh.read()).hexdigest()
            record["bytes"] += os.path.getsize(os.path.join(out_dir, output))
    except (OSError, ValueError) as exc:
        record["problems"].append(f"unreadable outputs: {exc}")
        return
    if manifest.get("status") != "ok":
        record["problems"].append(f"manifest status {manifest.get('status')!r}")
    if manifest.get("non_absorbed_runs", 0) != 0:
        record["problems"].append(f"non_absorbed_runs = {manifest['non_absorbed_runs']}")
    expected = reference.setdefault(name, record["hashes"])
    if record["hashes"] != expected:
        record["problems"].append(f"sha256 differs from the first operation: {record['hashes']} != {expected}")
    record["key"] = (name, tuple(sorted(record["hashes"].items())))
    if record["key"] in distinct:
        shutil.rmtree(out_dir)
    else:
        distinct[record["key"]] = record


def content_check(records, distinct: dict) -> None:
    """Check the content of each distinct output once; every copy gets its problems."""
    from checks import check_outputs  # loads ARPACK and whole CSVs: only after peak_rss_mb is read

    found = {
        key: check_outputs(r["inv"].subcommand, r["settings"], r["out_dir"]) for key, r in distinct.items()
    }
    for record in records:
        if "key" in record:
            record["problems"] += found[record["key"]]


def run_operations(cli, workload, seed, work_dir, setup_dirs, budget_s, fingerprints, sampler, tracer=None):
    """Run whole operations until the next one would end past `budget_s`.

    Returns one entry per operation: its wall time (the sum of its CLI
    invocations), the host-speed factor over it and that time scaled by it,
    the fingerprinted invocation records, and with a tracer its spans.
    `fingerprints` is the (reference, distinct) pair `fingerprint` keeps.
    """
    ops = []
    start = time.perf_counter()
    longest = 0.0
    while not ops or time.perf_counter() - start + longest <= budget_s:
        op_start = time.perf_counter()
        op_dir = work_dir / f"op{len(ops)}{'t' if tracer is not None else ''}"
        records = [invoke(cli, inv, seed, op_dir / inv.name, setup_dirs) for inv in workload.operation]
        op_end = time.perf_counter()
        traced = tracer.take() if tracer is not None else None
        for r in records:
            fingerprint(r, *fingerprints)
        wall = sum(r["wall_s"] for r in records)
        factor = sampler.factor(op_start, op_end)
        ops.append({"wall_s": wall, "factor": factor, "scaled_s": wall * factor, "invocations": records, "trace": traced})
        longest = max(longest, time.perf_counter() - op_start)
    return ops


def layer_metrics(workload, ops, setup_spans, setup_factor) -> dict:
    """Per-layer metrics of one operation, medians over the traced operations.

    Times are scaled to the nominal host speed like the end-to-end ones.
    """
    from tracer import TARGETS, self_times

    per_op = []
    for op in ops:
        spans, counters = op["trace"]
        times = self_times(spans)
        m = {}
        for t in TARGETS:
            calls, self_s = times.get(t.metric, (0, 0.0))
            m[f"{t.metric}.calls"] = calls
            m[f"{t.metric}.self_s"] = self_s * op["factor"]
        traj = counters.get("trajectories", 0)
        steps = m["dynamics.mc_step.calls"]
        m["graph.networks_per_trajectory"] = m["graph.generate_ba.calls"] / traj if traj else 0.0
        m["dynamics.absorbed_ratio"] = counters.get("absorbed", 0) / traj if traj else 0.0
        m["dynamics.tail_step_share"] = counters.get("tail_steps", 0) / steps if steps else 0.0
        m["dynamics.node_steps_per_s"] = workload.n * steps / m["dynamics.mc_step.self_s"] if steps else 0.0
        solves = m["mmca.mmca_run.calls"]
        m["mmca.iterations_per_solve"] = counters.get("mmca_iterations", 0) / solves if solves else 0.0
        m["cli.output_bytes"] = sum(inv["bytes"] for inv in op["invocations"])
        per_op.append(m)
    out = {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
    setup_times = self_times(setup_spans)
    for stem in SETUP_LAYER_METRICS:
        out[f"setup.{stem}.self_s"] = setup_times.get(stem, (0, 0.0))[1] * setup_factor
    return out


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():  # a plain source checkout has no commit to record
        try:
            commit = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=30,
            ).stdout.strip() or None
        except OSError:
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def setup_sample(workload_name: str, seed: int) -> tuple[float, float]:
    """Start and end of the set-up of a fresh process running only the set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload_name, "--seed", str(seed), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    return sample["start"], sample["end"]


def main(argv_=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv_)
    if not (ROOT / "src" / "muxepi" / "__init__.py").is_file():
        print(f"perfbench: no muxepi package under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)

    workload = WORKLOADS[args.workload]
    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            start, end, _, _, records = set_up(workload, work_dir, args.seed)
            if any(r["status"] != 0 for r in records):
                return 1
            print(json.dumps({"start": start, "end": end}))
            return 0
        work_dir.mkdir(parents=True)
        sampler = Sampler(work_dir / "hostspeed.txt")
        try:
            return measure(workload, args, work_dir, sampler)
        finally:
            sampler.close()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(workload, args, work_dir: Path, sampler) -> int:
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        setup_intervals = []
    else:
        setup_intervals = [setup_sample(workload.name, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    start, end, cli, setup_dirs, setup_records = set_up(workload, work_dir, args.seed, tracer)
    setup_intervals.append((start, end))
    setup_raw = [b - a for a, b in setup_intervals]
    setup_factors = [sampler.factor(a, b) for a, b in setup_intervals]
    reference: dict = {}
    fingerprints = (reference, {})
    for r in setup_records:
        fingerprint(r, *fingerprints)
    op_args = (cli, workload, args.seed, work_dir, setup_dirs)
    if tracer is not None:
        setup_spans, _ = tracer.take()
        tracer.uninstall()
        plain = run_operations(*op_args, args.seconds / 2, fingerprints, sampler)
        tracer.install()
        traced = run_operations(*op_args, args.seconds / 2, fingerprints, sampler, tracer)
        tracer.uninstall()
        ops = plain + traced
    else:
        ops = run_operations(*op_args, args.seconds, fingerprints, sampler)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    invocations = setup_records + [inv for op in ops for inv in op["invocations"]]
    content_check(invocations, fingerprints[1])
    attempted = len(invocations)
    failed = sum(1 for inv in invocations if inv["problems"])
    if tracer is not None:
        values = layer_metrics(workload, traced, setup_spans, setup_factors[-1])
        values["trace_overhead_s"] = statistics.median(op["scaled_s"] for op in traced) - statistics.median(
            op["scaled_s"] for op in plain
        )
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s * f for s, f in zip(setup_raw, setup_factors)), "unit": "s"},
            "wall_s": {"value": statistics.median(op["scaled_s"] for op in ops), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "success_rate": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    detail = {
        "workload": workload.name,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "setup_raw_s": setup_raw,
        "setup_host_factor": setup_factors,
        "operation_raw_s": [op["wall_s"] for op in ops],
        "operation_host_factor": [op["factor"] for op in ops],
        "operations_traced": len(ops) - len(plain) if tracer is not None else 0,
        "absent_trace_targets": tracer.absent if tracer is not None else [],
        "sha256": reference,
        "problems": [f"{inv['inv'].name}: {p}" for inv in invocations for p in inv["problems"]],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(results_dir / f"{stem}.json", "w", encoding="ascii") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    if tracer is not None:
        write_spans(results_dir / f"{stem}-spans.csv", setup_spans, traced)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def write_spans(path: Path, setup_spans, ops) -> None:
    """Every recorded span: phase (setup or traced operation number), name, start, end, parent."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("phase,index,name,start,end,parent\n")
        phases = [("setup", setup_spans)] + [(f"op{i}", op["trace"][0]) for i, op in enumerate(ops)]
        for phase, spans in phases:
            for i, s in enumerate(spans):
                fh.write(f"{phase},{i},{s.name},{s.start!r},{s.end!r},{s.parent}\n")


def unit_of(metric: str) -> str:
    if metric.endswith(".calls") or metric == "mmca.iterations_per_solve":
        return "count"
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric == "cli.output_bytes":
        return "bytes"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
