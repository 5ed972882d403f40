"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs a small version of every workload (``run.py --fast``) untraced, traced,
and traced again, and checks that:

- every gate passes;
- the result line has exactly the keys the benchmark contract names, and
  the metric names and units match BENCHMARK.json (end-to-end untraced,
  per-layer traced);
- tracing leaves every answer and output-derived counter bit-identical;
- the traced counters repeat exactly between the two traced runs;
- without the program's sources the benchmark fails without a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def run_fast(workload, trace):
    proc = bench(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                  "--trace", str(trace), "--fast"])
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    return lines[-1], lines[-2]["detail"]


def check_result(result, declared, errors, label):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
        return
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        errors.append(f"{label}: attempted/failed {result['attempted']}/{result['failed']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        errors.append(f"{label}: missing {missing}, extra {extra}, unit differs {wrong}")
    for name, m in result["metrics"].items():
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{label}: {name} = {v!r} is not a finite number")


def answers(detail):
    return [(op["seed"], op["quality"], op["counters"]) for op in detail["ops"]]


def counts(result):
    # Per-layer values that are not times or rates must repeat exactly.
    return {n: m["value"] for n, m in result["metrics"].items()
            if not (n.endswith("_s") or n.endswith("_per_s"))}


def check_missing_program(errors):
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(["--workload", "car", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], cwd=tmp)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        errors.append("without src/ the benchmark printed a result or exited 0")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    errors: list[str] = []
    missing = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    if missing:
        errors.append(f"BENCHMARK.json names unknown workloads {sorted(missing)}")
    for name in WORKLOADS:
        plain, plain_detail = run_fast(name, 0)
        traced, traced_detail = run_fast(name, 1)
        again, _ = run_fast(name, 1)
        check_result(plain, spec["end_to_end"], errors, f"{name} trace=0")
        check_result(traced, spec["per_layer"], errors, f"{name} trace=1")
        if not (plain["correct"] and traced["correct"]):
            errors.append(f"{name}: a gate failed (see stderr of run.py)")
        if json.dumps(answers(plain_detail)) != json.dumps(answers(traced_detail)):
            errors.append(f"{name}: answers differ between traced and untraced runs")
        if counts(traced) != counts(again):
            errors.append(f"{name}: traced counters differ between two runs")
        print(f"{name}: run_s={plain['metrics']['run_s']['value']:.3f} "
              f"traced={traced['metrics']['bench.traced_run_s']['value']:.3f}")
    check_missing_program(errors)
    for e in errors:
        print("FAIL:", e)
    print("selftest:", "ok" if not errors else f"{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
