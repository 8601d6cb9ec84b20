"""Append an entry to the benchmark's committed record (``record.json``).

Usage, from the root of a checkout::

    python3 perfbench/record.py --label "what this entry measures" [--seeds 101,...,110]

Runs every workload of ``BENCHMARK.json`` once per seed with tracing
off, and once with tracing on (first seed), and appends one entry: the
provenance, and per workload the median and quartiles of each
end-to-end metric and the per-layer metrics of the traced run.  The
spreads it prints are the quartile distance as a share of the median,
the figure each end-to-end metric's bound is set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD = HERE / "record.json"


def run(workload: str, seed: int, seconds: int, trace: int):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default=",".join(str(seed) for seed in range(101, 111)))
    args = parser.parse_args()
    seeds = [int(seed) for seed in args.seeds.split(",")]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    entry = {"label": args.label, "run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in bench["workloads"]:
        name = workload["name"]
        results = []
        for seed in seeds:
            provenance, result = run(name, seed, bench["run_seconds"], 0)
            results.append(result)
        provenance, traced = run(name, seeds[0], bench["run_seconds"], 1)
        entry["provenance"] = {key: provenance[key] for key in ("git_sha", "src_sha256", "src_lines", "nproc", "python", "numpy", "scipy")}
        end_to_end = {}
        for spec in bench["end_to_end"]:
            values = [result["metrics"][spec["name"]]["value"] for result in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            end_to_end[spec["name"]] = {"median": median, "q1": q1, "q3": q3, "unit": spec["unit"], "values": values}
            print(f"{name:15s} {spec['name']:12s} median={median:.6g} spread={(q3 - q1) / median:.4f} bound={spec['bound']}", flush=True)
        entry["workloads"][name] = {
            "why": workload["why"],
            "seeded": provenance["seeded"],
            "unit": provenance["unit"],
            "correct": all(result["correct"] for result in results) and traced["correct"],
            "failed": sum(result["failed"] for result in results),
            "attempted": sum(result["attempted"] for result in results),
            "end_to_end": end_to_end,
            "per_layer": {key: value["value"] for key, value in traced["metrics"].items()},
        }
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {"entries": []}
    record["entries"].append(entry)
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
