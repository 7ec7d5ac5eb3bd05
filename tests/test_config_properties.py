"""Every config, valid or not, through every subcommand: exit 0, 1 or 2, never a
traceback. Configs are drawn, with a fixed seed, from per-field sets of edge
values, kept small enough to run in a few seconds (d <= 20, n <= 500, at most 5
trials and replicates)."""

import json
import random
import shutil

import pytest

from ojaboot import cli

SEED = 1729
CONFIGS = 80

# every field's edge values, as (values the field accepts, values it rejects); the
# first four keys are always set, so the defaults (n = 5000, d = 100, 300 trials and
# replicates) never run. Accepted values can still exit 2 later: a rank-one
# covariance, an overflow, an underflow to a point mass.
EDGES = {
    "n": ([2, 5, 40, 500], [-1, 0, 1]),
    "d": ([2, 3, 5, 20], [-1, 0, 1]),
    "trials": ([1, 2, 5], [0, 2.0]),
    "replicates": ([1, 2, 5], [0, True]),
    "beta": ([0.0, 5e-324, 0.5, 1.0, 3.0, 1e150], ["1.0", None]),
    "c": ([0.0, 5e-324, 1e-300, 0.01, 1.0, 50.0, 1e150], [-1.0]),
    "scale": ([5e-324, 1e-300, 1.0, 5.0, 1e150, 1e300], [-1.0, 0.0]),
    "eta_rule": (["log_n", *({"fixed": v} for v in (5e-324, 1e-300, 1.0, 1e150, 1e300))],
                 ["fixed", {"fixed": -1.0}, {"fixed": 0.0}]),
    "master_seed": ([0, 1, 2**64 - 1], [-1, 2**64]),
    "mc_m_estimate": ([1, 100], [0]),
    "mc_chisq": ([1, 2**62], [0]),  # numpy would refuse a sample of 2**62 draws
}
ALWAYS = ("n", "d", "trials", "replicates")
OUTPUTS = {
    "sampling": {"sampling_cdf.csv", "sampling_scaled_cdf.csv", "sampling_summary.json"},
    "bootstrap": {"bootstrap_cdf.csv", "bootstrap_summary.json"},
    "reference": {"reference_cdf.csv", "reference_summary.json"},
    "verify": {"verify_report.json"},
    "compare": {"sampling_cdf.csv", "sampling_scaled_cdf.csv", "bootstrap_cdf.csv",
                "compare_cdf.csv", "compare.svg", "compare_summary.json"},
}
# verify's checks that hold exactly on every valid config; covariance_rate is a
# statistical check, whose fails are counted, not asserted
EXACT_CHECKS = {"hoeffding_exactness", "bootstrap_hoeffding_exactness", "orthogonality",
                "chisq_moments", "anticoncentration", "vbar_closed_form"}


def draw_configs():
    """CONFIGS configs; a key is set with probability 1/2 (the first four always), to
    a rejected value with probability 1/10."""
    rng = random.Random(SEED)
    return [{key: rng.choice(bad if rng.random() < 0.1 else good)
             for key, (good, bad) in EDGES.items() if key in ALWAYS or rng.random() < 0.5}
            for _ in range(CONFIGS)]


def strict_json(text):
    return json.loads(text, parse_constant=lambda name: pytest.fail(f"summary has {name}"))


def run(capsys, config_file, out, command, *extra):
    """(exit code, stdout, stderr, {file name: bytes}) of one in-process CLI call."""
    code = cli.main([command, "--config", str(config_file), "--out", str(out), *extra])
    captured = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else {}
    return code, captured.out, captured.err, files


def test_every_config_exits_0_1_or_2(tmp_path, capsys):
    rate_fails = valid = 0
    for k, raw in enumerate(draw_configs()):
        config_file = tmp_path / f"config{k}.json"
        config_file.write_text(json.dumps(raw))
        results = {}
        for command, extra in (("sampling", ()), ("bootstrap", ()), ("reference", ()),
                               ("verify", ()), ("compare", ("--threads", "1")),
                               ("compare", ("--threads", "2"))):
            out = tmp_path / f"{k}-{command}"  # one path for both compares: it is echoed
            code, stdout, err, files = run(capsys, config_file, out, command, *extra)
            shutil.rmtree(out, ignore_errors=True)
            where = f"config {raw}, {command} {' '.join(extra)}"
            assert code in ((0, 1, 2) if command == "verify" else (0, 2)), where
            if code == 2:
                assert err.startswith("config error:") and err.count("\n") == 1, where
                continue
            assert err == "", where
            assert OUTPUTS[command] <= set(files), where
            for name in files:
                if name.endswith(".json"):
                    strict_json(files[name])
            results[command, extra] = files
            if command == "verify":
                valid += 1
                checks = strict_json(files["verify_report.json"])["checks"]
                assert all(c["passed"] for c in checks if c["name"] in EXACT_CHECKS), where
                rate_fails += not next(c["passed"] for c in checks
                                       if c["name"] == "covariance_rate")
                assert stdout.count(": pass") + stdout.count(": FAIL") == 7, where
        compares = [results.get(("compare", ("--threads", t))) for t in "12"]
        assert compares[0] == compares[1], f"config {raw}: compare bytes depend on --threads"
    print(f"covariance_rate failed on {rate_fails} of {valid} valid verify configs")
    assert valid > 0
