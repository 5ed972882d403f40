"""Steadiness check of the benchmark over seeds.

    python3 perfbench/steady.py [--workloads truck,servo] [--seeds 1,2,...]
                                [--out perfbench/results/steady.json]

Runs every named workload untraced once per seed, with the run length
from BENCHMARK.json, and reports for each end-to-end metric the median and
the distance between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``).  A spread above the
metric's bound fails (``setup_s`` is reported but exempt).  The first
seed is then run traced, and its answers and output-derived counters must
be bit-identical to the untraced run's.  With ``--compare`` an earlier
report's answers and counters must repeat exactly for every seed the two
share.  Exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    return {"result": lines[-1], "detail": lines[-2]["detail"],
            "context": lines[-3]["context"]}


def answers(detail):
    return json.dumps([(op["seed"], op["quality"], op["counters"]) for op in detail["ops"]])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--out", default=None)
    p.add_argument("--compare", default=None, help="earlier report to repeat")
    args = p.parse_args()
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, failures = {}, []
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            r = run(workload, seed, spec["run_seconds"], 0)
            runs.append(r)
            print(workload, seed, json.dumps({k: round(v["value"], 4) for k, v in
                                              r["result"]["metrics"].items()}),
                  "correct" if r["result"]["correct"] else "INCORRECT", flush=True)
            if not r["result"]["correct"]:
                failures.append(f"{workload} seed {seed}: incorrect")
        traced = run(workload, seeds[0], spec["run_seconds"], 1)
        if answers(traced["detail"]) != answers(runs[0]["detail"]):
            failures.append(f"{workload}: traced answers differ from untraced")
        spread = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            rel = (q3 - q1) / med if med else float("inf")
            spread[name] = {"median": med, "iqr_rel": rel, "bound": bound,
                            "values": values}
            flag = "ok" if rel <= bound / 3 else ("WIDE" if rel <= bound else "FAIL")
            print(f"  {name}: median {med:.5g} spread {rel:.4f} (bound {bound}) {flag}")
            if rel > bound and name != "setup_s":
                failures.append(f"{workload} {name}: spread {rel:.4f} > bound {bound}")
        if workload in earlier:
            before = dict(zip(earlier[workload]["seeds"], earlier[workload]["answers"]))
            for seed, r in zip(seeds, runs):
                if seed in before and json.loads(answers(r["detail"])) != before[seed]:
                    failures.append(f"{workload} seed {seed}: answers differ from {args.compare}")
        layer = {n: m["value"] for n, m in traced["result"]["metrics"].items()}
        report[workload] = {
            "seeds": seeds, "spread": spread,
            "answers": [json.loads(answers(r["detail"])) for r in runs],
            "raw_ops": [[{k: op[k] for k in ("seed", "wall_s", "cpu_s", "host_scale")}
                         for op in r["detail"]["ops"]] for r in runs],
            "traced_seed": seeds[0], "per_layer": layer,
            "context": runs[0]["context"],
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
