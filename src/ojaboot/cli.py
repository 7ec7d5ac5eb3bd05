"""Command line entry points.

Exit codes: 0 on success, 1 when a verification check fails, 2 for config
problems, among them a model whose top eigengap is too small for the reference
law, a d whose covariance does not fit in memory and an output file that cannot
be written (argparse also exits 2 on malformed flags, which matches).

`compare` runs two independent experiments. With `--threads` >= 2 (where the
platform has `os.fork`) the bootstrap runs in a forked child while this process
runs sampling; both execute the same code on the same config, so the output
bytes do not depend on `--threads`. Every other subcommand runs in one process.
"""

from __future__ import annotations

import argparse
import os
import pickle
import signal
import sys
from pathlib import Path

# numpy comes in with harness, after harness.py is compiled, so its import reuses
# the compiler's freed memory when no bytecode cache exists
from . import harness, linalg, model, stats


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--threads", type=int, default=1, metavar="K",
                        help="compare: with K >= 2, run the bootstrap in a second "
                             "process beside sampling; other subcommands use one")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ojaboot",
        description="Streaming PCA error experiments: sampling law, multiplier "
                    "bootstrap, weighted chi-square reference, and self-checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("sampling", "distribution of the Oja error over fresh datasets"),
        ("bootstrap", "distribution of multiplier-replicate errors on one dataset"),
        ("reference", "closed-form reference covariance and its chi-square law"),
        ("compare", "run sampling and bootstrap, compare their CDFs"),
        ("verify", "run the built-in verification suite"),
    ):
        _add_common(sub.add_parser(name, help=text))
    return parser


def _out_dir(config: harness.ExperimentConfig) -> Path:
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise harness.ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _cmd_sampling(config, out: Path) -> int:
    res = harness.run_sampling_experiment(config)
    harness.write_cdf_csv(out / "sampling_cdf.csv", res["cdf"])
    harness.write_cdf_csv(out / "sampling_scaled_cdf.csv", res["scaled_cdf"])
    harness.write_summary_json(out / "sampling_summary.json", config,
                               quantiles={"mean": res["mean"], "median": res["median"]})
    return 0


def _cmd_bootstrap(config, out: Path) -> int:
    res = harness.run_bootstrap_experiment(config)
    harness.write_cdf_csv(out / "bootstrap_cdf.csv", res["cdf"])
    harness.write_summary_json(out / "bootstrap_summary.json", config,
                               quantiles=res["quantiles"])
    return 0


def _cmd_reference(config, out: Path) -> int:
    res = harness.run_reference(config)
    vbar = res["vbar"]
    harness.write_grid_csv(out / "reference_cdf.csv", res["t"], res["F"])
    harness.write_summary_json(out / "reference_summary.json", config,
                               trace_vbar=float(vbar.trace()),
                               frob_vbar=linalg.frobenius_norm(vbar),
                               weights_top10=[float(x) for x in res["weights"].weights[:10]],
                               quantiles=res["quantiles"])
    return 0


def _in_two_processes(here, there, config):
    """(here(config), there(config)), the second computed in a forked child and
    sent back through a pipe. The child leaves only through os._exit, so it never
    flushes this process's stdio or runs its exit handlers; its exception is
    re-raised here. If here(config) raises, the child is killed; it is always reaped."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                result = (True, there(config))
            except BaseException as exc:
                result = (False, exc)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(result, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            mine = here(config)
            data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0 or not data:
        raise RuntimeError(f"the forked process exited with status {status} "
                           "before sending its result")
    ok, theirs = pickle.loads(data)
    if not ok:
        raise theirs
    return mine, theirs


def _cmd_compare(config, out: Path, threads: int) -> int:
    if threads >= 2 and hasattr(os, "fork"):
        sampling, boot = _in_two_processes(harness.run_sampling_experiment,
                                           harness.run_bootstrap_experiment, config)
    else:
        sampling = harness.run_sampling_experiment(config)
        boot = harness.run_bootstrap_experiment(config)
    harness.write_cdf_csv(out / "sampling_cdf.csv", sampling["cdf"])
    harness.write_cdf_csv(out / "sampling_scaled_cdf.csv", sampling["scaled_cdf"])
    harness.write_cdf_csv(out / "bootstrap_cdf.csv", boot["cdf"])
    ks = stats.kolmogorov_distance(boot["cdf"], sampling["cdf"])
    named = [("bootstrap", boot["cdf"]), ("sampling", sampling["cdf"])]
    harness.write_pooled_csv(out / "compare_cdf.csv", named)
    harness.write_text(out / "compare.svg", harness.render_cdf_svg(named))
    harness.write_summary_json(out / "compare_summary.json", config,
                               ks=ks, quantiles=boot["quantiles"])
    return 0


def _cmd_verify(config, out: Path) -> int:
    report = harness.verify(config)
    harness.write_summary_json(out / "verify_report.json", config,
                               checks=report["checks"])
    for check in report["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        print(f"{check['name']}: {status}")
    return 0 if report["passed"] else 1


_COMMANDS = {
    "sampling": _cmd_sampling,
    "bootstrap": _cmd_bootstrap,
    "reference": _cmd_reference,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise harness.ConfigError("threads must be >= 1")
        config = harness.load_config(args.config, seed=args.seed, out=args.out)
        # before any computation, so an unusable --out fails fast
        out = _out_dir(config)
        if args.command == "compare":
            return _cmd_compare(config, out, args.threads)
        return _COMMANDS[args.command](config, out)
    except (harness.ConfigError, model.DegenerateGapError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
