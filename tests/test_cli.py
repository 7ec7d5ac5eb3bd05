"""CLI subcommands, exit codes, and output determinism."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import ojaboot
from ojaboot import cli, harness, model


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps({
        "n": 60, "d": 4, "beta": 1.0, "c": 0.01, "scale": 5.0,
        "trials": 6, "replicates": 5, "eta_rule": "log_n", "master_seed": 3,
        "mc_m_estimate": 800, "mc_chisq": 800,
        "output_dir": str(tmp_path / "out"),
    }))
    return p


@pytest.fixture
def forked(monkeypatch):
    """The pids that os.fork returns in the parent."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def read_all(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestExitCodes:
    def test_bad_json_is_config_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{oops")
        assert cli.main(["sampling", "--config", str(p)]) == 2

    def test_config_that_is_not_utf8_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_bytes(b"\xff\xfe{}")
        assert cli.main(["sampling", "--config", str(p)]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        for raw in ({"n": 100, "wrong_key": 1}, {"eta_value": 7.5}):
            p.write_text(json.dumps(raw))
            assert cli.main(["sampling", "--config", str(p)]) == 2
            assert "unknown config keys" in capsys.readouterr().err

    def test_invalid_field_is_config_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"n": 1}))
        assert cli.main(["verify", "--config", str(p)]) == 2

    @pytest.mark.parametrize("field, value", [
        ("n", 50.5), ("d", 4.0), ("trials", True), ("replicates", 5.0),
        ("mc_m_estimate", "800"), ("mc_chisq", None), ("master_seed", 3.0),
        ("beta", float("inf")), ("c", float("-inf")), ("scale", float("nan")),
        ("eta_rule", {"fixed": float("nan")}), ("output_dir", 5),
    ])
    def test_mistyped_or_nonfinite_field_is_config_error(self, config_path, capsys,
                                                         field, value):
        raw = json.loads(config_path.read_text())
        raw[field] = value
        config_path.write_text(json.dumps(raw))
        assert cli.main(["reference", "--config", str(config_path)]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["reference", "verify"])
    def test_degenerate_eigengap_is_config_error(self, tmp_path, capsys, command):
        # strong correlation and equal scales leave no usable top eigengap
        p = tmp_path / "flat.json"
        p.write_text(json.dumps({"c": 50, "beta": 0, "d": 10,
                                 "output_dir": str(tmp_path / "out")}))
        assert cli.main([command, "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "eigengap" in err

    @pytest.mark.parametrize("field, value", [
        ("scale", 10**400), ("c", 10**400), ("eta_rule", {"fixed": 10**400}),
        ("n", 10**22), ("mc_chisq", 10**30), ("d", 10**30),
    ], ids=["scale", "c", "eta_rule", "n", "mc_chisq", "d"])
    def test_integer_past_the_machine_range_is_config_error(self, config_path, capsys,
                                                            field, value):
        # JSON integer literals: the float fields' have no float, the int fields' do
        # not fit in 64 bits; the message names the field
        raw = json.loads(config_path.read_text())
        raw[field] = value
        config_path.write_text(json.dumps(raw))
        assert cli.main(["reference", "--config", str(config_path)]) == 2
        name = "eta_rule.fixed" if field == "eta_rule" else field
        assert capsys.readouterr().err.startswith(f"config error: {name} ")

    @pytest.mark.parametrize("args", [["sampling"], ["bootstrap"], ["reference"], ["verify"],
                                      ["compare", "--threads", "2"]],
                             ids=["sampling", "bootstrap", "reference", "verify", "compare-forked"])
    def test_d_past_numpys_size_limit_is_config_error(self, config_path, capsys, args):
        # numpy refuses the 2**61-entry index vector before it allocates anything; the
        # message names d, not an overflow, and verify's exit 1 would say a check failed
        raw = json.loads(config_path.read_text())
        config_path.write_text(json.dumps({**raw, "d": 2**61}))
        assert cli.main([*args, "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == (f"config error: d = {2**61}: the d x d covariance "
                                           "does not fit in memory\n")

    @pytest.mark.parametrize("args", [["verify"], ["compare", "--threads", "2"]],
                             ids=["verify", "compare-forked"])
    def test_covariance_that_cannot_be_allocated_is_config_error(self, config_path, capsys,
                                                                 monkeypatch, forked, args):
        def no_memory(spec):
            raise MemoryError

        monkeypatch.setattr(model.KernelSpec, "sigma", property(no_memory))
        assert cli.main([*args, "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == ("config error: d = 4: the d x d covariance "
                                           "does not fit in memory\n")
        assert len(forked) == (args[0] == "compare")
        for pid in forked:  # killed and reaped: no zombie is left
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @pytest.mark.parametrize("command, name", [("sampling", "sampling_cdf.csv"),
                                               ("verify", "verify_report.json")])
    def test_output_file_that_cannot_be_written_is_config_error(self, config_path, capsys,
                                                                tmp_path, command, name):
        # a directory in the file's place; verify's exit 1 would say a check failed
        (tmp_path / "out" / name).mkdir(parents=True)
        assert cli.main([command, "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: cannot write {tmp_path / 'out' / name}: " in err

    def test_negative_seed_is_config_error(self, config_path):
        assert cli.main(["sampling", "--config", str(config_path), "--seed", "-4"]) == 2

    def test_bad_threads_is_config_error(self, config_path):
        assert cli.main(["sampling", "--config", str(config_path), "--threads", "0"]) == 2

    def test_out_under_a_regular_file_is_config_error(self, config_path, tmp_path, capsys,
                                                      monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setattr(harness, "run_sampling_experiment",
                            lambda config: pytest.fail("computed before creating --out"))
        args = ["sampling", "--config", str(config_path), "--out", str(blocker / "out")]
        assert cli.main(args) == 2
        assert "cannot create output directory" in capsys.readouterr().err

    def test_output_dir_with_a_nul_byte_is_config_error(self, config_path, capsys):
        # Path.mkdir raises ValueError, not OSError; verify's exit 1 would say a check failed
        raw = json.loads(config_path.read_text())
        config_path.write_text(json.dumps({**raw, "output_dir": "a\x00b"}))
        assert cli.main(["verify", "--config", str(config_path)]) == 2
        assert "cannot create output directory" in capsys.readouterr().err

    def test_out_with_a_nul_byte_is_config_error(self, config_path, capsys):
        assert cli.main(["sampling", "--config", str(config_path), "--out", "a\x00b"]) == 2
        assert "cannot create output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("args, rate", [
        (["sampling"], 1e300), (["bootstrap"], 1e300), (["compare", "--threads", "2"], 1e300),
        # n / eta_n, the scale of sampling's scaled errors, overflows
        (["sampling"], 1e-320), (["compare", "--threads", "1"], 1e-320),
        (["compare", "--threads", "2"], 1e-320),
        # no rate: at the default one the scales s_i = 5 i^400 take the pass past the range
        (["sampling"], None),
    ], ids=["sampling", "bootstrap", "compare-forked", "sampling-tiny-rate",
            "compare-tiny-rate", "compare-forked-tiny-rate", "sampling-negative-beta"])
    def test_pass_beyond_the_finite_range_is_config_error(self, config_path, capsys,
                                                          monkeypatch, args, rate):
        raw = json.loads(config_path.read_text())
        raw.update({"n": 5, "d": 2, "trials": 1, "beta": -400} if rate is None
                   else {"n": 50, "eta_rule": {"fixed": rate}})
        config_path.write_text(json.dumps(raw))
        if args[0] == "compare" and rate > 1:
            # sampling runs in this process at a sane rate, so the error is raised in
            # the forked bootstrap process and has to come back through the pipe
            sampling = harness.run_sampling_experiment
            monkeypatch.setattr(harness, "run_sampling_experiment", lambda config: sampling(
                dataclasses.replace(config, eta_rule="log_n")))
        assert cli.main([*args, "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "finite range" in err
        assert rate is not None or "beta = -400" in err

    def test_success_is_zero(self, config_path):
        assert cli.main(["sampling", "--config", str(config_path)]) == 0

    @pytest.mark.parametrize("command", ["reference", "verify"])
    def test_large_scale_reference_is_zero(self, tmp_path, command):
        # vbar's null eigenvalue rounds to ~1e-16 * |vbar|, about -3e-8 here; the
        # weights clamp it relative to the largest weight, not against a fixed -1e-12
        p = tmp_path / "large.json"
        p.write_text(json.dumps({"scale": 1000, "d": 20, "n": 500, "mc_chisq": 1000,
                                 "output_dir": str(tmp_path / "out")}))
        assert cli.main([command, "--config", str(p)]) == 0

    @pytest.mark.parametrize("scale, command", [
        (1e80, "reference"), (1e80, "verify"), (1e80, "sampling"),
        (1e80, "bootstrap"), (1e80, "compare"),
        *[(1.2e154, c) for c in ("sampling", "bootstrap", "reference", "compare", "verify")]])
    def test_scale_out_of_the_float_range_is_config_error(self, tmp_path, capsys, scale,
                                                          command):
        p = tmp_path / "scale.json"
        p.write_text(json.dumps({"scale": scale, "d": 10, "n": 500, "trials": 4,
                                 "replicates": 4, "mc_chisq": 1000,
                                 "output_dir": str(tmp_path / "out")}))
        # a numpy overflow warning would print to stderr ahead of the error, with its
        # source line; record every warning instead of letting pytest keep it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main([command, "--config", str(p)]) == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("config error:")
        assert f"scale = {scale!r}" in err

    @pytest.mark.parametrize("scale", [1e30, 1e70])
    def test_verify_passes_past_the_float_oracle_range(self, tmp_path, capsys, scale):
        # both Hoeffding checks are exact, so their products may pass 1e308
        p = tmp_path / "scale.json"
        p.write_text(json.dumps({"scale": scale, "d": 10, "n": 500, "mc_chisq": 1000,
                                 "output_dir": str(tmp_path / "out")}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["verify", "--config", str(p)]) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        assert [c["passed"] for c in report["checks"]] == [True] * 7
        by_name = {c["name"]: c["value"] for c in report["checks"]}
        assert by_name["hoeffding_exactness"] == by_name["bootstrap_hoeffding_exactness"] == 0.0

    @pytest.mark.parametrize("raw", [
        {"c": 0, "d": 2, "n": 200}, {"beta": 1e6, "d": 4, "n": 200},
        # vbar, about eta_n * M, underflows to zero
        {"eta_rule": {"fixed": 1e-320}}, {"scale": 1e-160, "d": 4, "n": 30},
        # vbar underflows to subnormal entries, whose eigenvalues carry roundoff of
        # their own size, some of it negative
        {"eta_rule": {"fixed": 1e-320}, "n": 200},
    ], ids=["rank-one-kernel", "underflowing-scales", "tiny-rate", "tiny-scale",
            "subnormal-rate"])
    def test_rank_one_covariance_verify_is_config_error(self, tmp_path, capsys, raw):
        # one nonzero eigenvalue, or an underflow: every chi-square weight is zero or
        # subnormal, and reference and verify both refuse the point mass at zero
        p = tmp_path / "rank1.json"
        p.write_text(json.dumps({**raw, "mc_chisq": 500, "output_dir": str(tmp_path / "out")}))
        for command in ("reference", "verify"):
            assert cli.main([command, "--config", str(p)]) == 2
            err = capsys.readouterr().err
            assert "config error:" in err and "point mass at zero" in err
        assert not (tmp_path / "out" / "reference_cdf.csv").exists()

    @pytest.mark.parametrize("command", ["reference", "verify"])
    def test_overflowing_norms_stay_finite(self, tmp_path, command):
        # vbar's entries reach ~3e298 at this rate: their squares overflow, its
        # Frobenius norm and the chi-square weights' l2 norm do not
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"eta_rule": {"fixed": 1e300}, "d": 10, "n": 500,
                                 "mc_chisq": 1000, "output_dir": str(tmp_path / "out")}))
        assert cli.main([command, "--config", str(p)]) == 0
        if command == "reference":
            text = (tmp_path / "out" / "reference_summary.json").read_text()
            summary = json.loads(text, parse_constant=lambda name: pytest.fail(name))
            assert 1e298 < summary["frob_vbar"] < 1e300

    def test_nonfinite_summary_value_is_config_error(self, config_path, capsys, monkeypatch):
        from ojaboot import linalg
        monkeypatch.setattr(linalg, "frobenius_norm", lambda a: float("inf"))
        assert cli.main(["reference", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "floating-point range" in err

    def test_verify_failure_is_one(self, config_path, monkeypatch):
        from ojaboot import hoeffding
        orig = hoeffding.subset_terms
        monkeypatch.setattr(hoeffding, "subset_terms",
                            lambda pairs: ((s, -h if s else h) for s, h in orig(pairs)))
        assert cli.main(["verify", "--config", str(config_path)]) == 1


class TestForkedBootstrap:
    def test_child_that_dies_fails_with_its_status(self, config_path, monkeypatch, forked):
        monkeypatch.setattr(harness, "run_bootstrap_experiment", lambda config: os._exit(3))
        with pytest.raises(RuntimeError, match="exited with status 3"):
            cli.main(["compare", "--config", str(config_path), "--threads", "2"])
        assert len(forked) == 1
        with pytest.raises(ChildProcessError):  # reaped: no zombie is left
            os.waitpid(forked[0], os.WNOHANG)

    def test_parent_error_kills_and_reaps_the_child(self, config_path, monkeypatch, forked):
        def fail(config):
            raise harness.ConfigError("sampling failed")

        monkeypatch.setattr(harness, "run_bootstrap_experiment", lambda config: time.sleep(30))
        monkeypatch.setattr(harness, "run_sampling_experiment", fail)
        start = time.monotonic()
        assert cli.main(["compare", "--config", str(config_path), "--threads", "2"]) == 2
        assert time.monotonic() - start < 15
        assert len(forked) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forked[0], os.WNOHANG)

    def test_one_process_below_two_threads(self, config_path, forked):
        assert cli.main(["compare", "--config", str(config_path), "--threads", "1"]) == 0
        assert cli.main(["verify", "--config", str(config_path), "--threads", "2"]) == 0
        assert forked == []


class TestOutputs:
    def test_sampling_files(self, config_path, tmp_path):
        assert cli.main(["sampling", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        assert (out / "sampling_cdf.csv").read_text().startswith("t,F\n")
        summary = json.loads((out / "sampling_summary.json").read_text())
        assert set(summary["quantiles"]) == {"mean", "median"}
        assert summary["ks"] is None

    def test_bootstrap_files(self, config_path, tmp_path):
        assert cli.main(["bootstrap", "--config", str(config_path)]) == 0
        summary = json.loads((tmp_path / "out" / "bootstrap_summary.json").read_text())
        assert set(summary["quantiles"]) == {"q0.9", "q0.95", "q0.99"}

    def test_reference_files(self, config_path, tmp_path):
        assert cli.main(["reference", "--config", str(config_path)]) == 0
        summary = json.loads((tmp_path / "out" / "reference_summary.json").read_text())
        assert summary["trace_vbar"] > 0
        assert summary["frob_vbar"] > 0
        assert len(summary["weights_top10"]) <= 10
        assert summary["trace_vbar"] == pytest.approx(sum(summary["weights_top10"]), rel=1e-6)

    def test_compare_files(self, config_path, tmp_path):
        assert cli.main(["compare", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        assert (out / "compare.svg").exists()
        summary = json.loads((out / "compare_summary.json").read_text())
        assert 0.0 <= summary["ks"] <= 1.0

    def test_verify_report(self, config_path, tmp_path, capsys):
        assert cli.main(["verify", "--config", str(config_path)]) == 0
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        assert len(report["checks"]) == 7
        assert all(c["passed"] for c in report["checks"])
        printed = capsys.readouterr().out
        assert printed.count(": pass") == 7

    def test_seed_override_changes_results(self, config_path, tmp_path):
        out = tmp_path / "out"
        cli.main(["sampling", "--config", str(config_path)])
        first = (out / "sampling_cdf.csv").read_bytes()
        cli.main(["sampling", "--config", str(config_path), "--seed", "99"])
        assert (out / "sampling_cdf.csv").read_bytes() != first

    def test_out_override(self, config_path, tmp_path):
        other = tmp_path / "elsewhere"
        cli.main(["sampling", "--config", str(config_path), "--out", str(other)])
        assert (other / "sampling_cdf.csv").exists()


class TestDeterminism:
    def test_thread_count_invisible_in_bytes(self, config_path, tmp_path):
        # --threads 2 and 8 run the bootstrap in a forked process
        out = tmp_path / "out"
        outputs = []
        for threads in ("1", "2", "8"):
            assert cli.main(["compare", "--config", str(config_path), "--threads", threads]) == 0
            outputs.append(read_all(out))
            shutil.rmtree(out)
        assert len(outputs[0]) == 6
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_blas_thread_count_invisible_in_compare_reference_verify_bytes(self, tmp_path):
        # A 300-row block at d = 100 makes the iterate and sampling products large
        # enough for OpenBLAS to split them over threads. At d = 100 it would also
        # split the products of the closed-form moment matrix and the conjugation
        # into vbar; reference and verify both build that covariance.
        config = {"n": 200, "d": 100, "trials": 300, "replicates": 300, "master_seed": 1,
                  "mc_m_estimate": 1000, "mc_chisq": 1000}
        # The last run forks compare's bootstrap out of a process that has started
        # OpenBLAS's thread pool.
        outputs = []
        for blas_threads, threads in (("1", "1"), ("2", "1"), ("2", "2")):
            run_dir = tmp_path / f"blas{blas_threads}-threads{threads}"
            run_dir.mkdir()
            (run_dir / "config.json").write_text(json.dumps(config))
            files = {}
            for command in ("compare", "reference", "verify"):
                proc = run_module([command, "--config", "config.json", "--out", command,
                                   "--threads", threads],
                                  run_dir, OPENBLAS_NUM_THREADS=blas_threads)
                assert proc.returncode == 0, proc.stderr
                files[command] = read_all(run_dir / command)
            outputs.append(files)
        assert [len(outputs[0][c]) for c in ("compare", "reference", "verify")] == [6, 2, 1]
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_mc_m_estimate_changes_no_output(self, config_path, tmp_path):
        # the moment matrix is exact, so the key is only validated and echoed
        runs = []
        for mc_m_estimate in (1, 800):
            raw = json.loads(config_path.read_text())
            raw["mc_m_estimate"] = mc_m_estimate
            config_path.write_text(json.dumps(raw))
            assert cli.main(["reference", "--config", str(config_path)]) == 0
            out = tmp_path / "out"
            summary = json.loads((out / "reference_summary.json").read_text())
            assert summary["config_echo"].pop("mc_m_estimate") == mc_m_estimate
            runs.append(((out / "reference_cdf.csv").read_bytes(), summary))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("command", ["reference", "verify"])
    def test_mc_chisq_changes_no_output(self, config_path, tmp_path, command):
        # the reference law is an exact CDF, so the key is only validated and echoed;
        # 2**62 draws would not fit in memory
        runs = []
        for mc_chisq in (1, 2**62):
            raw = json.loads(config_path.read_text())
            raw["mc_chisq"] = mc_chisq
            config_path.write_text(json.dumps(raw))
            assert cli.main([command, "--config", str(config_path)]) == 0
            files = read_all(tmp_path / "out")
            name = f"{command}_summary.json" if command == "reference" else "verify_report.json"
            summary = json.loads(files.pop(name))
            assert summary["config_echo"].pop("mc_chisq") == mc_chisq
            runs.append((files, summary))
        assert runs[0] == runs[1]

    def test_rerun_is_byte_identical(self, config_path, tmp_path):
        out = tmp_path / "out"
        cli.main(["reference", "--config", str(config_path)])
        first = read_all(out)
        cli.main(["reference", "--config", str(config_path)])
        assert read_all(out) == first


def run_module(args, cwd, code=None, **env_overrides):
    # The child runs in cwd, so a relative PYTHONPATH entry would resolve there;
    # put the directory that holds the package first, as an absolute path.
    pkg_root = str(Path(ojaboot.__file__).resolve().parent.parent)
    env = {**os.environ, **env_overrides}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    entry = ["-m", "ojaboot.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *entry, *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


@pytest.mark.parametrize("commands, absent", [
    # numpy.median, union1d and unique import numpy.ma, a megabyte of memory
    ([["compare", "--threads", "2"], ["verify"]], ["numpy.ma"]),
    # verify evaluates exactly on integers, so no subcommand loads fractions (or
    # the decimal it loads)
    ([["compare"], ["sampling"], ["bootstrap"], ["reference"], ["verify"]],
     ["numpy.ma", "fractions", "decimal", "_decimal"]),
], ids=["compare-verify", "no-exact-evaluation"])
def test_no_numpy_ma_import(config_path, tmp_path, commands, absent):
    calls = ", ".join(f"cli.main({[c[0], '--config', str(config_path), *c[1:]]!r})"
                      for c in commands)
    code = (f"import sys; from ojaboot import cli; codes = [{calls}]; "
            f"print(codes, [m for m in {absent!r} if m in sys.modules])")
    proc = run_module([], tmp_path, code=code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{[0] * len(commands)} []"


def test_harness_is_compiled_before_numpy_loads(tmp_path):
    # without a bytecode cache, numpy's import then reuses the memory the compiler
    # freed after harness.py, the largest module (about 0.25 MB of peak RSS)
    code = ("import builtins, sys; real = builtins.__import__; first = []\n"
            "def hook(name, *args, **kwargs):\n"
            "    if name == 'numpy' and name not in sys.modules and not first:\n"
            "        first.append(sorted(m for m in sys.modules if m.startswith('ojaboot')))\n"
            "    return real(name, *args, **kwargs)\n"
            "builtins.__import__ = hook\n"
            "import ojaboot.cli\n"
            "print(first[0])")
    proc = run_module([], tmp_path, code=code)
    assert proc.returncode == 0, proc.stderr
    assert "ojaboot.harness" in proc.stdout.splitlines()[-1]


def test_module_entry_point(config_path, tmp_path):
    proc = run_module(["verify", "--config", str(config_path)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "vbar_closed_form: pass" in proc.stdout
