"""Command line entry points.

Exit codes: 0 on success, 1 when a verification check fails, 2 for config
problems (argparse also exits 2 on malformed flags, which matches).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--threads", type=int, default=1, help="accepted; has no effect")


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
    except OSError as exc:
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
    summary = res["reference"].summary(res["weights"])
    harness.write_cdf_csv(out / "reference_cdf.csv", res["cdf"])
    harness.write_summary_json(out / "reference_summary.json", config,
                               trace_vbar=summary["trace"],
                               frob_vbar=summary["frobenius"],
                               weights_top10=summary["weights"][:10],
                               quantiles=res["quantiles"])
    return 0


def _cmd_compare(config, out: Path) -> int:
    sampling = harness.run_sampling_experiment(config)
    boot = harness.run_bootstrap_experiment(config)
    harness.write_cdf_csv(out / "sampling_cdf.csv", sampling["cdf"])
    harness.write_cdf_csv(out / "sampling_scaled_cdf.csv", sampling["scaled_cdf"])
    harness.write_cdf_csv(out / "bootstrap_cdf.csv", boot["cdf"])
    cmp_out = harness.compare(boot["cdf"], sampling["cdf"], "compare",
                              name_a="bootstrap", name_b="sampling", out_dir=out)
    harness.write_summary_json(out / "compare_summary.json", config,
                               ks=cmp_out["ks"], quantiles=boot["quantiles"])
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
    "compare": _cmd_compare,
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
        return _COMMANDS[args.command](config, out)
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
