"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/prove.py --seeds 1-10 --out perfbench/results/<name>.json
    python3 perfbench/prove.py --seeds 11-20 --against perfbench/results/baseline.json

For every workload and end-to-end metric it prints the median, the quartiles
and the spread (q3 - q1) / median, next to the bound from BENCHMARK.json.
--against compares medians with an earlier file, and refuses when the
environment stamps differ in anything but seed and commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Stamp fields that may differ between runs whose numbers are compared.
FREE_FIELDS = {"seed", "commit", "src_sha256"}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["stamp"] = json.loads(lines[-2].removeprefix("env "))
    return result


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                     "values": values}
    return out


def settings(stamp: dict) -> dict:
    return {k: v for k, v in stamp.items() if k not in FREE_FIELDS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    old = json.loads(args.against.read_text()) if args.against else None
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, spec["run_seconds"])
                for seed in parse_seeds(args.seeds)]
        ok &= all(r["correct"] and r["failed"] == 0 for r in runs)
        stamps = {json.dumps(settings(r["stamp"]), sort_keys=True) for r in runs}
        if len(stamps) != 1:
            raise RuntimeError(f"{workload}: runs disagree on their environment: {stamps}")
        summary = summarize(runs)
        report["workloads"][workload] = {"settings": settings(runs[0]["stamp"]),
                                         "commits": sorted({str(r["stamp"]["commit"]) for r in runs}),
                                         "seeds": [r["stamp"]["seed"] for r in runs],
                                         "failed": sum(r["failed"] for r in runs),
                                         "attempted": sum(r["attempted"] for r in runs),
                                         "metrics": summary}
        base = old["workloads"].get(workload) if old else None
        if base and base["settings"] != report["workloads"][workload]["settings"]:
            raise RuntimeError(f"{workload}: environment differs from {args.against}; "
                               f"{base['settings']} vs {report['workloads'][workload]['settings']}")
        for name, s in summary.items():
            line = (f"{workload:15s} {name:42s} {s['median']:14.6g} {s['unit']:6s} "
                    f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                    f"(bound {bounds[name]}, third {bounds[name] / 3:.4f})")
            if base and name in base["metrics"] and base["metrics"][name]["median"]:
                line += f" vs {args.against.name} {s['median'] / base['metrics'][name]['median']:.4f}x"
            print(line, flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
