"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 10 [--first-seed 1] [--workloads mc-all ...]
                                [--write perfbench/baseline.json]

For every workload and end-to-end metric it prints the median, the first and
third quartiles of the per-run values (``statistics.quantiles(values, n=4)``)
and the spread (q3 - q1) / median, next to the metric's bound from
BENCHMARK.json. ``--write`` appends the values, the quartiles, the output
hashes and sample times per seed and the machine as one set to the
``sets`` list of a baseline file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return info, result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--write", help="save a baseline JSON file here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    baseline = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, spec["run_seconds"]) for seed in seeds]
        baseline["machine"] = runs[-1][0]["machine"]
        entry = {
            "correct": all(result["correct"] for _, result in runs),
            "failed": sum(result["failed"] for _, result in runs),
            "attempted": sum(result["attempted"] for _, result in runs),
            "output_sha256": {str(info["seed"]): info["output_sha256"] for info, _ in runs},
            "wall_s_samples": {str(info["seed"]): info["wall_s_samples"] for info, _ in runs},
            "kernel_s_samples": {str(info["seed"]): info["kernel_s_samples"] for info, _ in runs},
            "metrics": {},
        }
        for name, bound in bounds.items():
            values = [result["metrics"][name]["value"] for _, result in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["metrics"][name] = {"median": median, "q1": q1, "q3": q3,
                                      "spread": spread, "bound": bound, "values": values}
            flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"{workload:11s} {name:12s} median {median:10.4f}  q1 {q1:10.4f}  "
                  f"q3 {q3:10.4f}  spread {spread:6.3f}  bound {bound:.2f}  {flag}", flush=True)
        print(f"{workload:11s} correct {entry['correct']}  failed {entry['failed']}"
              f"/{entry['attempted']}", flush=True)
        baseline["workloads"][workload] = entry
    if args.write:
        path = Path(args.write)
        saved = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"sets": []}
        saved["sets"].append(baseline)
        path.write_text(json.dumps(saved, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
