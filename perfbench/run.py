"""ojaboot benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload compare-fig --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from ./src.

--trace 0 measures the end-to-end metrics. It first starts SETUP_REPS + 1
fresh interpreters that build the workload's SpectralModel (the first one only
warms the bytecode caches) and reports the median as setup_s. Then a closed
loop with one client starts a fresh `python3 -m ojaboot.cli` process, waits
for it to exit, checks its output, and starts the next, until --seconds have
passed (at least one run). run_s, cpu_s and peak_rss_mb are medians over those
runs, measured from outside the process.

--trace 1 makes one untraced and one traced run of the same command and
reports the per-layer metrics from the traced one (see tracer.py); the traced
output must be byte-identical to the untraced output.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The line before it is the environment stamp.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from proc import run_child  # noqa: E402
from tracer import summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPS = 5
CHILD_TIMEOUT_S = 150.0
SETUP_CODE = ("import sys\n"
              "import ojaboot.cli\n"
              "from ojaboot import harness\n"
              "harness.load_config(sys.argv[1]).spectral_model()\n")


def declared_units(root: Path) -> tuple[dict, dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# numpy's version and BLAS build, asked of a child so that this process never
# imports numpy (see check.py on why it stays small).
NUMPY_CODE = ("import json, numpy\n"
              "try:\n"
              "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
              "    blas = blas['name'] + ' ' + blas['version']\n"
              "except (TypeError, KeyError):\n"
              "    blas = 'unknown'\n"
              "print(json.dumps({'numpy': numpy.__version__, 'blas': blas}))\n")


def digest(out_dir: Path) -> str:
    """sha256 over the names and bytes of every file in out_dir."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0")
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()


def env_stamp(root: Path, workload, seed: int, seconds: int, trace: int) -> dict:
    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or None
    numpy_info = json.loads(subprocess.run([sys.executable, "-c", NUMPY_CODE], check=True,
                                           capture_output=True, text=True).stdout)
    src = hashlib.sha256()
    for path in sorted((root / "src" / "ojaboot").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "threads": workload.threads, "blas_threads": workload.blas_threads,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "kernel": platform.release(),
        "python": platform.python_version(), **numpy_info,
        "commit": commit, "src_sha256": src.hexdigest(),
    }


class Bench:
    """One workload at one seed, run from the checkout at root."""

    def __init__(self, root: Path, workload, seed: int):
        self.root = root
        self.wl = workload
        self.seed = seed
        self.tmp = root / ".perfbench_tmp" / f"{workload.name}-{seed}-{os.getpid()}"
        self.tmp.mkdir(parents=True)
        self.config_path = self.tmp / "config.json"
        self.config_path.write_text(json.dumps(workload.config))
        self.env = {**os.environ, "PYTHONPATH": str(root / "src"), **workload.blas_env()}

    def setup_once(self) -> float:
        res = run_child([sys.executable, "-c", SETUP_CODE, str(self.config_path)], self.env,
                        self.root, self.tmp / "setup.log", CHILD_TIMEOUT_S)
        if res.returncode != 0:
            raise RuntimeError(f"setup probe exited {res.returncode}: "
                               + (self.tmp / "setup.log").read_text()[-2000:])
        return res.wall_s

    def check(self, out: Path, log: Path) -> list[str]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "check.py"), self.wl.command, str(self.seed), str(out),
             str(log), json.dumps(self.wl.config)],
            cwd=self.root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            return [f"output check exited {proc.returncode}: {proc.stderr[-2000:]}"]
        return json.loads(proc.stdout)

    def run_cli(self, tag: str, trace_path: Path | None = None):
        """One CLI process; returns (ChildResult, output dir or None, log file).

        The process runs in self.tmp and gets --config and --out as relative
        paths. The summaries echo --out, so every run's output is the same
        bytes wherever the checkout is; the directory is renamed to out-<tag>
        afterwards."""
        out = self.tmp / "out"
        args = [self.wl.command, "--config", self.config_path.name, "--seed", str(self.seed),
                "--out", out.name, "--threads", str(self.wl.threads)]
        if trace_path is None:
            argv = [sys.executable, "-m", "ojaboot.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_path),
                    f"{self.wl.name}-{self.seed}-{tag}", "--", *args]
        log = self.tmp / f"log-{tag}.txt"
        res = run_child(argv, self.env, self.tmp, log, CHILD_TIMEOUT_S)
        if res.returncode != 0 or not out.is_dir():
            shutil.rmtree(out, ignore_errors=True)
            return res, None, log
        return res, out.rename(self.tmp / f"out-{tag}"), log

    def run_checked(self, tag: str, checked: dict, trace_path: Path | None = None):
        """run_cli plus the output check; returns (ChildResult, output dir,
        digest, problems). `checked` maps the digests of outputs checked
        before to their problems, so identical outputs are checked once."""
        res, out, log = self.run_cli(tag, trace_path)
        if out is None:
            timed_out = " (timed out)" if res.timed_out else ""
            tail = log.read_text(errors="replace")[-2000:]
            return res, None, None, [f"exit code {res.returncode}{timed_out}: {tail}"]
        key = digest(out)
        if key not in checked:
            checked[key] = self.check(out, log)
        return res, out, key, checked[key]

    def untraced(self, seconds: float) -> tuple[dict, int, int, list]:
        setup = [self.setup_once() for _ in range(SETUP_REPS + 1)][1:]
        runs, failed, problems, checked = [], 0, [], {}
        start = time.perf_counter()
        while not runs or time.perf_counter() - start < seconds:
            res, out, _, found = self.run_checked(str(len(runs)), checked)
            runs.append(res)
            if not found and len(checked) > 1:
                found = ["output differs from an earlier run with the same seed"]
            failed += bool(found)
            problems += found
            if out is not None:
                shutil.rmtree(out)
        walls = [r.wall_s for r in runs]
        q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else (walls[0],) * 3
        print(f"{self.wl.name} seed {self.seed}: {len(runs)} runs, run_s quartiles "
              f"{q1:.4f} / {statistics.median(walls):.4f} / {q3:.4f} s, "
              f"setup_s samples {', '.join(f'{s:.4f}' for s in setup)} s, "
              f"failed_share {failed / len(runs):.4f} ratio ({failed}/{len(runs)})")
        metrics = {
            "run_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(r.cpu_s for r in runs),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        }
        return metrics, len(runs), failed, problems

    def traced(self) -> tuple[dict, int, int, list]:
        trace_path = self.tmp / "trace.json"
        checked = {}
        plain, _, plain_key, plain_problems = self.run_checked("plain", checked)
        traced, traced_out, traced_key, traced_problems = self.run_checked(
            "traced", checked, trace_path)
        if not plain_problems and not traced_problems and plain_key != traced_key:
            traced_problems = ["traced output differs from untraced output"]
        failed = bool(plain_problems) + bool(traced_problems)
        if failed:
            return {}, 2, failed, plain_problems + traced_problems
        trace = json.loads(trace_path.read_text())
        metrics = summarize(trace)
        metrics["harness.bytes_written"] = sum(p.stat().st_size for p in traced_out.iterdir())
        metrics["cli.import_s"] = trace["cli_import_s"]
        metrics["cli.main.s"] = trace["cli_main_s"]
        metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
        if trace["missing"]:
            print(f"not traced, absent from the package: {', '.join(trace['missing'])}")
        return metrics, 2, 0, []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "ojaboot" / "cli.py").is_file():
        print(f"perfbench: no ojaboot source at {root / 'src' / 'ojaboot'}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_units(root)
    units = per_layer if args.trace else end_to_end
    workload = WORKLOADS[args.workload]
    stamp = env_stamp(root, workload, args.seed, args.seconds, args.trace)
    bench = Bench(root, workload, args.seed)
    try:
        if args.trace:
            metrics, attempted, failed, problems = bench.traced()
        else:
            metrics, attempted, failed, problems = bench.untraced(args.seconds)
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)
        try:
            bench.tmp.parent.rmdir()
        except OSError:
            pass
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    if correct and set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    print("env " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
