"""Experiment config, run orchestration, verification suite, and file writers."""

import json
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ojaboot import harness, hoeffding, model, oja, randgen, reference, stats


def scalar_draw_replicates(data, u0, eta, streams):
    """The whole ensemble as one matrix per step, with one scalar multiplier
    draw per replicate and step from t = 2: the reference for the bootstrap."""
    r = np.tile(oja.normalize(u0), (len(streams), 1))
    prev = None
    for x in data:
        h = r @ x
        if prev is None:
            r = r + eta * h[:, None] * x[None, :]
        else:
            w = np.array([s.normal(0.0, 0.5) for s in streams])
            g = r @ prev
            r = (r + eta * ((1.0 + w) * h)[:, None] * x[None, :]
                 - eta * (w * g)[:, None] * prev[None, :])
        r /= np.linalg.norm(r, axis=1, keepdims=True)
        prev = x
    return r


def whole_ensemble_errors(data, u0, eta, streams, v_hat):
    """Errors of one unchunked oja.advance call over the whole ensemble, fed one
    scalar multiplier draw per replicate and step from t = 2."""
    mult = np.array([[0.0] + [s.normal(0.0, 0.5) for _ in range(len(data) - 1)]
                     for s in streams])
    reps = oja.unit_rows(oja.advance(oja.start(u0, len(streams)), data, eta, mult))
    return np.clip(1.0 - (reps @ v_hat) ** 2, 0.0, 1.0)


def traced_peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def tiny_config(**overrides):
    base = dict(n=60, d=4, beta=1.0, c=0.01, scale=5.0, trials=8, replicates=6,
                master_seed=7, mc_m_estimate=2000, mc_chisq=2000)
    base.update(overrides)
    return harness.ExperimentConfig(**base)


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = harness.ExperimentConfig()
        assert cfg.n == 5000 and cfg.d == 100 and cfg.eta_rule == "log_n"

    def test_eta_log_rule(self):
        assert tiny_config().eta_n == pytest.approx(np.log(60))

    def test_eta_fixed_rule(self):
        cfg = tiny_config(eta_rule="fixed", eta_value=2.5)
        assert cfg.eta_n == 2.5

    @pytest.mark.parametrize("bad", [
        dict(n=1), dict(d=1), dict(trials=0), dict(replicates=0),
        dict(eta_rule="quadratic"), dict(eta_rule="fixed"),
        dict(eta_rule="fixed", eta_value=0.0), dict(master_seed=-1),
        dict(master_seed=2**64), dict(mc_chisq=0), dict(scale=0.0), dict(c=-0.1),
        dict(mc_m_estimate=0),
    ])
    def test_invalid_fields(self, bad):
        with pytest.raises(harness.ConfigError):
            tiny_config(**bad)

    def test_from_dict_round_trip(self):
        cfg = tiny_config(eta_rule="fixed", eta_value=1.5)
        again = harness.config_from_dict(cfg.echo())
        assert again == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(harness.ConfigError):
            harness.config_from_dict({"n": 100, "dd": 5})

    def test_from_dict_rejects_bad_eta_shape(self):
        with pytest.raises(harness.ConfigError):
            harness.config_from_dict({"eta_rule": {"fixed": 1.0, "extra": 2}})

    def test_load_config_overrides(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"n": 100, "d": 5}))
        cfg = harness.load_config(p, seed=99, out=tmp_path / "o")
        assert cfg.n == 100 and cfg.master_seed == 99
        assert cfg.output_dir == str(tmp_path / "o")

    def test_load_config_bad_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        with pytest.raises(harness.ConfigError):
            harness.load_config(p)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(harness.ConfigError):
            harness.load_config(tmp_path / "absent.json")

    def test_load_config_non_object_root(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("[1, 2]")
        with pytest.raises(harness.ConfigError):
            harness.load_config(p)


class TestSamplingExperiment:
    def test_shapes_and_ranges(self):
        cfg = tiny_config()
        res = harness.run_sampling_experiment(cfg)
        assert res["samples"].shape == (8,)
        assert np.all(res["samples"] >= 0) and np.all(res["samples"] <= 1)
        assert res["cdf"].count == 8
        assert res["mean"] == pytest.approx(res["samples"].mean())
        assert res["median"] == pytest.approx(np.median(res["samples"]))

    def test_scaled_samples(self):
        cfg = tiny_config()
        res = harness.run_sampling_experiment(cfg)
        np.testing.assert_allclose(res["scaled_samples"],
                                   (cfg.n / cfg.eta_n) * res["samples"])

    def test_single_trial_cdf(self):
        res = harness.run_sampling_experiment(tiny_config(trials=1))
        assert res["cdf"].count == 1

    def test_deterministic(self):
        a = harness.run_sampling_experiment(tiny_config())
        b = harness.run_sampling_experiment(tiny_config())
        np.testing.assert_array_equal(a["samples"], b["samples"])

    def test_matches_per_trial_runs(self):
        # n = 131 is not a multiple of the time chunk, 70 not one of the block
        cfg = tiny_config(n=131, d=20, trials=70)
        res = harness.run_sampling_experiment(cfg)
        mdl = cfg.spectral_model()
        u0 = harness.draw_u0(cfg)
        per_trial = [oja.sin2(oja.run(model.sample_x(mdl, cfg.stream("trial", j), cfg.n),
                                      cfg.n, cfg.eta_n, u0), mdl.v1)
                     for j in range(70)]
        np.testing.assert_allclose(res["samples"], per_trial, rtol=1e-12, atol=0.0)

    def test_trials_above_the_block_cap(self):
        # 600 = 4 x 128 + 88 trials: five sampling blocks, the last one short
        cfg = tiny_config(n=100, d=3, trials=600)
        res = harness.run_sampling_experiment(cfg)
        mdl = cfg.spectral_model()
        u0 = harness.draw_u0(cfg)
        per_trial = [oja.sin2(oja.run(model.sample_x(mdl, cfg.stream("trial", j), cfg.n),
                                      cfg.n, cfg.eta_n, u0), mdl.v1)
                     for j in range(600)]
        np.testing.assert_allclose(res["samples"], per_trial, rtol=1e-12, atol=0.0)

    def test_float_budget_changes_no_sample(self, monkeypatch):
        # 140 trials cross the block cap; budgets of one step, a few odd steps and the
        # default must move no bit: rescales are powers of two, and each step's product
        # by Sigma^(1/2) covers the same rows
        cfg = tiny_config(n=131, d=20, trials=140)
        default = harness.run_sampling_experiment(cfg)["samples"]
        for budget in (1, 7 * 128 * 20):
            monkeypatch.setattr(harness, "_SAMPLING_FLOATS", budget)
            np.testing.assert_array_equal(harness.run_sampling_experiment(cfg)["samples"],
                                          default)

    def test_memory_is_one_chunk_buffer(self, monkeypatch):
        # the traced peak grows with the float budget by one buffer of coordinates, not
        # by a second buffer of samples; at the default budget it is that buffer plus
        # about 1.2 MB for the model, the iterates and the streams
        def peak(budget):
            monkeypatch.setattr(harness, "_SAMPLING_FLOATS", budget)
            return traced_peak_bytes(lambda: harness.run_sampling_experiment(cfg))

        cfg = tiny_config(n=300, d=100, trials=300)
        harness.run_sampling_experiment(tiny_config())  # first use imports numpy.random
        default = harness._SAMPLING_FLOATS
        assert peak(default) < 8 * default + 2 * 2**20
        assert peak(3 * default) - peak(default) < 1.5 * 8 * 2 * default

    def test_u0_shared_with_bootstrap(self):
        cfg = tiny_config()
        u_samp = harness.run_sampling_experiment(cfg)["u0"]
        u_boot = harness.run_bootstrap_experiment(cfg)["u0"]
        np.testing.assert_array_equal(u_samp, u_boot)
        np.testing.assert_array_equal(u_samp, harness.draw_u0(cfg))
        assert np.linalg.norm(u_samp) == pytest.approx(1.0)


class TestBootstrapExperiment:
    def test_shapes_and_ranges(self):
        res = harness.run_bootstrap_experiment(tiny_config())
        assert res["errors"].shape == (6,)
        assert np.all(res["errors"] >= 0) and np.all(res["errors"] <= 1)
        assert set(res["quantiles"]) == {"q0.9", "q0.95", "q0.99"}

    def test_matches_library_bootstrap(self):
        # the harness wiring must reproduce the library op end to end
        cfg = tiny_config(replicates=5)
        res = harness.run_bootstrap_experiment(cfg)
        mdl = cfg.spectral_model()
        u0 = harness.draw_u0(cfg)
        data = model.sample_x(mdl, cfg.stream("data", 0), cfg.n)
        reps = scalar_draw_replicates(data, u0, cfg.eta_n / cfg.n,
                                      [cfg.stream("w", i) for i in range(5)])
        v_hat = oja.run(data, cfg.n, cfg.eta_n, u0)
        errors = np.clip(1.0 - (reps @ v_hat) ** 2, 0.0, 1.0)
        np.testing.assert_allclose(res["errors"], errors, atol=1e-15)
        np.testing.assert_allclose(res["v_hat"], v_hat, atol=1e-15)

    def test_block_boundary_is_invisible(self):
        # 70 replicates in one block through one time chunk, against one unsharded
        # ensemble of per-replicate streams; test_replicates_above_the_block_cap
        # crosses the block and chunk ends
        cfg = tiny_config(n=30, replicates=70)
        res = harness.run_bootstrap_experiment(cfg)
        mdl = cfg.spectral_model()
        u0 = harness.draw_u0(cfg)
        data = model.sample_x(mdl, cfg.stream("data", 0), cfg.n)
        # one unsharded ensemble over all 70 replicates
        reps = scalar_draw_replicates(data, u0, cfg.eta_n / cfg.n,
                                      [cfg.stream("w", i) for i in range(70)])
        v_hat = oja.run(data, cfg.n, cfg.eta_n, u0)
        errors = np.clip(1.0 - (reps @ v_hat) ** 2, 0.0, 1.0)
        np.testing.assert_allclose(res["errors"], errors, atol=1e-15)

    def test_bitwise_equal_to_scalar_draws(self):
        # n = 131 steps and 70 replicates fill part of one time chunk and one block;
        # test_replicates_above_the_block_cap crosses the block and chunk ends
        cfg = tiny_config(n=131, d=20, replicates=70)
        res = harness.run_bootstrap_experiment(cfg)
        mdl = cfg.spectral_model()
        u0 = harness.draw_u0(cfg)
        data = model.sample_x(mdl, cfg.stream("data", 0), cfg.n)
        np.testing.assert_array_equal(
            res["errors"], whole_ensemble_errors(data, u0, cfg.eta_n / cfg.n,
                                                 [cfg.stream("w", i) for i in range(70)],
                                                 res["v_hat"]))
        reps = scalar_draw_replicates(data, u0, cfg.eta_n / cfg.n,
                                      [cfg.stream("w", i) for i in range(70)])
        np.testing.assert_allclose(res["errors"],
                                   np.clip(1.0 - (reps @ res["v_hat"]) ** 2, 0.0, 1.0),
                                   atol=1e-15)

    def test_replicates_above_the_block_cap(self):
        # 520 = 512 + 8 replicates; n = 300 = 256 + 44 steps crosses a chunk end
        cfg = tiny_config(n=300, d=3, replicates=520)
        res = harness.run_bootstrap_experiment(cfg)
        mdl = cfg.spectral_model()
        u0 = harness.draw_u0(cfg)
        data = model.sample_x(mdl, cfg.stream("data", 0), cfg.n)
        np.testing.assert_array_equal(
            res["errors"], whole_ensemble_errors(data, u0, cfg.eta_n / cfg.n,
                                                 [cfg.stream("w", i) for i in range(520)],
                                                 res["v_hat"]))
        reps = scalar_draw_replicates(data, u0, cfg.eta_n / cfg.n,
                                      [cfg.stream("w", i) for i in range(520)])
        np.testing.assert_allclose(res["errors"],
                                   np.clip(1.0 - (reps @ res["v_hat"]) ** 2, 0.0, 1.0),
                                   atol=1e-15)

    def test_v_hat_is_one_pass_over_the_chunked_data(self):
        # n = 600 crosses two chunk ends and is not a multiple of the chunk
        cfg = tiny_config(n=600, d=5, replicates=3)
        res = harness.run_bootstrap_experiment(cfg)
        mdl = cfg.spectral_model()
        stream = cfg.stream("data", 0)
        step = harness._BOOTSTRAP_STEPS
        data = np.vstack([model.sample_x(mdl, stream, min(step, cfg.n - lo))
                          for lo in range(0, cfg.n, step)])
        v_hat = oja.run(data, cfg.n, cfg.eta_n, harness.draw_u0(cfg))
        np.testing.assert_array_equal(res["v_hat"], v_hat)

    def test_memory_does_not_grow_with_n(self):
        # the (8000, 100) dataset alone would hold 6.1 MiB
        cfg = tiny_config(n=8000, d=100, replicates=4)
        peak = traced_peak_bytes(lambda: harness.run_bootstrap_experiment(cfg))
        assert peak < 4 * 2**20


class TestReferenceRun:
    def test_weights_nonnegative_and_match_trace(self):
        res = harness.run_reference(tiny_config())
        w = res["weights"].weights
        assert np.all(w >= 0)
        assert sum(w) == pytest.approx(float(np.trace(res["vbar"])), abs=1e-8)
        assert np.all(res["samples"] >= 0)

    def test_d2_single_weight_closed_form(self):
        cfg = tiny_config(d=2)
        res = harness.run_reference(cfg)
        mdl = cfg.spectral_model()
        r = float(reference.contraction_ratios(mdl, cfg.eta_n, cfg.n)[0]) ** 2
        m = float(reference.estimate_M(mdl)[0, 0])
        expected = (cfg.eta_n / cfg.n) * m * (1 - r**cfg.n) / (1 - r)
        assert res["weights"].weights[0] == pytest.approx(expected, rel=1e-10)

    def test_deterministic(self):
        a = harness.run_reference(tiny_config())
        b = harness.run_reference(tiny_config())
        np.testing.assert_array_equal(a["samples"], b["samples"])


class TestCompare:
    """The pieces `ojaboot compare` writes: the KS distance, the pooled CSV, the SVG."""

    def test_identical_cdfs(self, tmp_path):
        cdf = stats.ecdf([0.1, 0.2, 0.3])
        assert stats.kolmogorov_distance(cdf, cdf) == 0.0
        harness.write_pooled_csv(tmp_path / "same_cdf.csv", [("a", cdf), ("b", cdf)])
        (tmp_path / "same.svg").write_text(harness.render_cdf_svg([("a", cdf), ("b", cdf)]))
        assert (tmp_path / "same_cdf.csv").exists()
        assert (tmp_path / "same.svg").exists()

    def test_artifact_contents(self, tmp_path):
        named = [("left", stats.ecdf([0.0, 1.0])), ("right", stats.ecdf([0.5]))]
        harness.write_pooled_csv(tmp_path / "pair_cdf.csv", named)
        lines = (tmp_path / "pair_cdf.csv").read_text().splitlines()
        assert lines[0] == "curve,t,F"
        assert lines[1] == "left,0.0,0.5"
        assert lines[3] == "right,0.5,1.0"
        root = ET.fromstring(harness.render_cdf_svg(named))
        tags = [e.tag.split("}")[-1] for e in root.iter()]
        assert tags.count("polyline") == 2
        assert tags.count("line") >= 2

    def test_ks_range(self):
        rng = np.random.default_rng(3)
        ks = stats.kolmogorov_distance(stats.ecdf(rng.random(50)), stats.ecdf(rng.random(70)))
        assert 0.0 <= ks <= 1.0


class TestVerify:
    def test_all_checks_pass(self):
        report = harness.verify(tiny_config(d=6))
        assert report["passed"]
        names = [c["name"] for c in report["checks"]]
        assert len(names) == len(set(names)) == 7
        assert set(names) == {
            "hoeffding_exactness", "bootstrap_hoeffding_exactness", "orthogonality",
            "chisq_moments", "anticoncentration", "covariance_rate", "vbar_closed_form"}

    def test_injected_sign_error_is_caught(self, monkeypatch):
        orig = hoeffding.hoeffding_term

        def botched(pairs, s):
            out = orig(pairs, s)
            return -out if s else out

        monkeypatch.setattr(hoeffding, "hoeffding_term", botched)
        report = harness.verify(tiny_config(d=6))
        by_name = {c["name"]: c for c in report["checks"]}
        assert not by_name["hoeffding_exactness"]["passed"]
        assert not report["passed"]

    def test_direct_product_does_not_use_the_pairs(self, monkeypatch):
        # direct_product multiplies the factors as written, so negating every
        # increment B_i breaks both identities instead of cancelling out of them
        orig = hoeffding.factor_pairs

        def flipped(*args, **kwargs):
            return [(a, None if b is None else -b) for a, b in orig(*args, **kwargs)]

        monkeypatch.setattr(hoeffding, "factor_pairs", flipped)
        by_name = {c["name"]: c for c in harness.verify(tiny_config(d=6))["checks"]}
        assert not by_name["hoeffding_exactness"]["passed"]
        assert not by_name["bootstrap_hoeffding_exactness"]["passed"]
        assert by_name["orthogonality"]["passed"]

    def test_draws_no_reference_chisq_sample(self, monkeypatch):
        # the chi-square checks need the reference weights, not run_reference's
        # sample, and the exact moment matrix draws nothing
        paths = []
        orig = randgen.derive_stream

        def recording(master_seed, path=()):
            paths.append(tuple(path))
            return orig(master_seed, path)

        monkeypatch.setattr(randgen, "derive_stream", recording)
        cfg = tiny_config(d=6)
        checks = harness.verify(cfg)["checks"]
        assert ("mc", "m_estimate") not in paths
        assert not any(p[:2] == ("verify", "rate_m") for p in paths)
        assert ("mc", "chisq") not in paths
        # both chi-square checks read one sample, drawn once
        assert ("verify", "anticoncentration") not in paths
        assert paths.count(("verify", "moments")) == 1
        by_name = {c["name"]: c for c in checks}
        # the unit-scaled law of the same weights as run_reference's
        unit = harness.run_reference(cfg)["weights"].unit()
        draws = reference.sample_weighted_chisq(
            unit, orig(cfg.master_seed, ("verify", "moments")), cfg.mc_chisq)
        expected = reference.anticoncentration_check(draws, 0.01)
        assert by_name["anticoncentration"]["value"] == expected["max_window_prob"]
        se_mean = np.sqrt(unit.variance / draws.size)
        m4 = np.mean((draws - draws.mean()) ** 4)
        se_var = np.sqrt((m4 - draws.var() ** 2) / draws.size)
        assert by_name["chisq_moments"]["value"] == {
            "mean_sigmas": float(abs(draws.mean() - unit.mean) / se_mean),
            "var_sigmas": float(abs(draws.var() - unit.variance) / se_var)}

    def test_hoeffding_exactness_survives_cancellation(self):
        # Default config, seed 5: the n=6, d=3, eta=log 6 case sums subset terms
        # of total norm ~6e7 to a product of norm ~15, and float64 evaluation
        # missed the 1e-10 bound (1.9e-10).
        check = harness._check_hoeffding(harness.ExperimentConfig(master_seed=5),
                                         with_multipliers=False)
        assert check["bound"] == 1e-10
        assert check["passed"], check["value"]


class TestWriters:
    def test_cdf_csv_exact_bytes(self, tmp_path):
        p = tmp_path / "c.csv"
        harness.write_cdf_csv(p, stats.ecdf([0.25, 0.5, 0.125]))
        assert p.read_text() == ("t,F\n"
                                 "0.125,0.3333333333333333\n"
                                 "0.25,0.6666666666666666\n"
                                 "0.5,1.0\n")

    def test_summary_schema(self, tmp_path):
        p = tmp_path / "s.json"
        harness.write_summary_json(p, tiny_config(), ks=0.5)
        data = json.loads(p.read_text())
        assert set(data) == {"config_echo", "ks", "trace_vbar", "frob_vbar",
                             "weights_top10", "quantiles", "checks"}
        assert data["ks"] == 0.5 and data["trace_vbar"] is None
        assert data["config_echo"]["n"] == 60

    def test_summary_rejects_unknown_field(self, tmp_path):
        with pytest.raises(ValueError):
            harness.write_summary_json(tmp_path / "s.json", tiny_config(), extra=1)

    def test_svg_thinning(self):
        big = stats.ecdf(np.linspace(0.0, 1.0, 50000))
        svg = harness.render_cdf_svg([("big", big)])
        assert svg.count(",") < 3 * harness._SVG_MAX_JUMPS + 100
        ET.fromstring(svg)

    def test_svg_degenerate_range(self):
        svg = harness.render_cdf_svg([("flat", stats.ecdf([0.5, 0.5]))])
        ET.fromstring(svg)
