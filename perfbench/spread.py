"""Run every workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --seeds 11-20 --compare .perfbench_out/spread-<earlier>.json

Workloads are interleaved round by round (one seed per round, the workload
order rotated each round), each run a fresh `run.py` process. For each
end-to-end metric the table gives the median of the per-run values, the
interquartile spread as a share of that median (`statistics.quantiles`, n=4)
and the metric's bound from BENCHMARK.json; with `--compare`, also the change
of the median against an earlier spread file. Any run that fails its output
checks is reported and makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(command, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if proc.returncode != 0:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "error": proc.stderr[-2000:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", metavar="SPREAD_JSON", help="earlier output of this script")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for r, seed in enumerate(seeds):
        for i in range(len(workloads)):
            w = workloads[(i + r) % len(workloads)]
            start = time.perf_counter()
            result = run_once(bench["command"], w, seed, seconds, args.trace)
            result["seed"], result["run_s"] = seed, time.perf_counter() - start
            runs[w].append(result)
            print(f"seed {seed:>4} {w:<22} {result['run_s']:6.1f}s correct={result['correct']}", file=sys.stderr)

    earlier = json.loads(Path(args.compare).read_text())["summary"] if args.compare else {}
    summary: dict = {}
    bad = 0
    print(f"{'workload':<22} {'metric':<34} {'unit':<6} {'median':>12} {'spread':>7} {'bound':>6} {'vs earlier':>10}")
    for w, results in runs.items():
        bad += sum(not r["correct"] for r in results)
        summary[w] = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results if m["name"] in r["metrics"]]
            if not values:
                continue
            s = summarize(values)
            summary[w][m["name"]] = s
            before = earlier.get(w, {}).get(m["name"])
            drift = f"{s['median'] / before['median'] - 1:+.3f}" if before and before["median"] else ""
            print(
                f"{w:<22} {m['name']:<34} {m['unit']:<6} {s['median']:>12.6g} {s['spread']:>7.3f} "
                f"{m.get('bound', ''):>6} {drift:>10}"
            )
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{w:<22} {'failed / attempted invocations':<34} {'count':<6} {failed:>6} / {attempted}")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spread-{time.strftime('%Y%m%d-%H%M%S')}-trace{args.trace}.json"
    path.write_text(json.dumps({"seeds": seeds, "seconds": seconds, "runs": runs, "summary": summary}, indent=1))
    print(f"wrote {path.relative_to(ROOT)}; runs failing their checks: {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
