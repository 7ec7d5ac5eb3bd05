"""Experiment config, run orchestration, verification suite, and file writers."""

import json
import math
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ojaboot import bootstrap, harness, hoeffding, model, oja, randgen, reference, stats


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


def normalized_loop(data, u0, eta):
    """Plain Oja one step at a time, divided by the norm after every step: the
    reference for v_hat."""
    v = oja.normalize(u0)
    for x in data:
        v = v + eta * (v @ x) * x
        v /= np.linalg.norm(v)
    return v


def one_trial_error(cfg, mdl, u0, j):
    """sin^2 of trial j from a one-row call of advance's per-row mode on the whole of
    that trial's coordinates: the reference for the sampling runner's blocks and chunks."""
    z = cfg.stream("trial", j).uniform_sym((1, cfg.n, cfg.d))
    w = oja.advance(oja.start(u0, 1), z, cfg.eta_n / cfg.n, root=mdl.sqrt_sigma)
    return oja.sin2(oja.unit_rows(w)[0], mdl.v1)


def whole_ensemble_errors(data, u0, eta, streams, v_hat):
    """Errors of one unchunked oja.advance call over the whole ensemble, fed one
    scalar multiplier draw per replicate and step from t = 2."""
    mult = np.array([[0.0] + [s.normal(0.0, 0.5) for _ in range(len(data) - 1)]
                     for s in streams])
    reps = oja.unit_rows(oja.advance(oja.start(u0, len(streams)), data, eta, mult))
    return np.clip(1.0 - (reps @ v_hat) ** 2, 0.0, 1.0)


def one_call_rows(cfg):
    """(data, unit rows) of one unchunked oja.advance call over the harness's rows:
    every replicate, then v_hat with zero multipliers."""
    mdl = cfg.spectral_model()
    stream = cfg.stream("data", 0)
    step = harness.bootstrap_steps(cfg.d)
    data = np.vstack([model.sample_x(mdl, stream, min(step, cfg.n - lo))
                      for lo in range(0, cfg.n, step)])
    rows = cfg.replicates + 1
    mult = bootstrap.draw_multipliers([cfg.stream("w", i) for i in range(cfg.replicates)],
                                      0, cfg.n, rows)
    block = oja.start(harness.draw_u0(cfg), rows)
    return data, oja.unit_rows(oja.advance(block, data, cfg.eta_n / cfg.n, mult))


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
        cfg = tiny_config(eta_rule={"fixed": 2.5})
        assert cfg.eta_n == 2.5

    @pytest.mark.parametrize("bad", [
        dict(n=1), dict(d=1), dict(trials=0), dict(replicates=0),
        dict(eta_rule="quadratic"), dict(eta_rule="fixed"),
        dict(eta_rule={"fixed": 0.0}), dict(master_seed=-1),
        dict(master_seed=2**64), dict(mc_chisq=0), dict(scale=0.0), dict(c=-0.1),
        dict(mc_m_estimate=0),
    ])
    def test_invalid_fields(self, bad):
        unused = "mc_m_estimate and mc_chisq must be >= 1; they are only validated and echoed"
        match = {"n": "n >= 2", "d": "d >= 2", "trials": "trials >= 1",
                 "replicates": "replicates >= 1", "eta_rule": "eta_rule|eta rule",
                 "master_seed": "master_seed must fit in 64 bits", "scale": "scale > 0",
                 "c": "c >= 0", "mc_chisq": unused, "mc_m_estimate": unused}
        with pytest.raises(harness.ConfigError, match=match[next(iter(bad))]):
            tiny_config(**bad)

    def test_from_dict_round_trip(self):
        cfg = tiny_config(eta_rule={"fixed": 1.5})
        again = harness.config_from_dict(cfg.echo())
        assert again == cfg
        # an integer rate is stored, and so echoed, as a float; json tells 2 from 2.0
        rule = tiny_config(eta_rule={"fixed": 2}).echo()["eta_rule"]
        assert json.dumps(rule) == '{"fixed": 2.0}'
        for rule in ("log_n", {"fixed": 2}):
            echo = tiny_config(eta_rule=rule).echo()
            assert json.dumps(harness.config_from_dict(echo).echo()) == json.dumps(echo)

    def test_from_dict_rejects_unknown_keys(self):
        # the rate is one key, eta_rule: a separate eta_value is not a config key
        for raw in ({"n": 100, "dd": 5}, {"eta_value": 2.5}):
            with pytest.raises(harness.ConfigError, match="unknown config keys"):
                harness.config_from_dict(raw)

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
        per_trial = [one_trial_error(cfg, mdl, u0, j) for j in range(70)]
        np.testing.assert_allclose(res["samples"], per_trial, rtol=1e-12, atol=0.0)

    def test_trials_above_the_block_cap(self):
        # 600 = 6 x 100 trials: six sampling blocks (140 trials end on a short one)
        cfg = tiny_config(n=100, d=3, trials=600)
        res = harness.run_sampling_experiment(cfg)
        mdl = cfg.spectral_model()
        u0 = harness.draw_u0(cfg)
        per_trial = [one_trial_error(cfg, mdl, u0, j) for j in range(600)]
        np.testing.assert_allclose(res["samples"], per_trial, rtol=1e-12, atol=0.0)

    def test_float_budget_changes_no_sample(self, monkeypatch):
        # 140 trials cross the block cap, 60 fill a smaller buffer; per-trial shares of
        # one step, a few odd steps and the default must move no bit: rescales are
        # powers of two, and each step's product by Sigma^(1/2) covers the same rows
        configs = [tiny_config(n=131, d=20, trials=trials) for trials in (140, 60)]
        defaults = [harness.run_sampling_experiment(cfg)["samples"] for cfg in configs]
        for share in (1, 7 * 20, 7 * 20 + 3):
            monkeypatch.setattr(harness, "_TRIAL_FLOATS", share)
            for cfg, default in zip(configs, defaults):
                np.testing.assert_array_equal(harness.run_sampling_experiment(cfg)["samples"],
                                              default)

    def test_memory_is_one_chunk_buffer(self, monkeypatch):
        # the traced peak grows with the per-trial share by one buffer of coordinates,
        # not by a second buffer of samples; at the default share it is that buffer plus
        # about 1.2 MB for the model, the iterates and the streams
        def peak(share):
            monkeypatch.setattr(harness, "_TRIAL_FLOATS", share)
            return traced_peak_bytes(lambda: harness.run_sampling_experiment(cfg))

        cfg = tiny_config(n=300, d=100, trials=300)
        harness.run_sampling_experiment(tiny_config())  # first use imports numpy.random
        share = harness._TRIAL_FLOATS
        default = harness._SAMPLING_BLOCK * share  # the buffer's floats
        assert peak(share) < 8 * default + 2 * 2**20
        assert peak(3 * share) - peak(share) < 1.5 * 8 * 2 * default

    def test_buffer_shrinks_with_the_trial_count(self):
        # 60 trials at d = 20 draw into 60 shares of coordinates, not 100
        cfg = tiny_config(n=300, d=20, trials=60)
        harness.run_sampling_experiment(tiny_config())  # first use imports numpy.random
        assert traced_peak_bytes(lambda: harness.run_sampling_experiment(cfg)) < 2**20

    def test_a_trial_depends_only_on_its_block(self):
        # d = 100: the first block holds 100 trials whether 100 or 150 are run, and a
        # block of up to 100 rows multiplies by Sigma^(1/2) on one rounding path. The
        # large rate carries a product's last bit into the samples (128-row blocks
        # move 5 of these 100)
        first = [harness.run_sampling_experiment(tiny_config(
                     n=40, d=100, trials=trials, eta_rule={"fixed": 40.0}))["samples"][:100]
                 for trials in (100, 150)]
        np.testing.assert_array_equal(first[1], first[0])

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
        v_hat = normalized_loop(data, u0, cfg.eta_n / cfg.n)
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
        v_hat = normalized_loop(data, u0, cfg.eta_n / cfg.n)
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

    @pytest.mark.parametrize("d", [5, 20])
    def test_v_hat_is_the_zero_multiplier_row(self, d):
        # n = 600 crosses two chunk ends and is not a multiple of the chunk; the
        # per-step normalized loop matches to rounding only
        cfg = tiny_config(n=600, d=d, replicates=3)
        res = harness.run_bootstrap_experiment(cfg)
        data, rows = one_call_rows(cfg)
        np.testing.assert_array_equal(res["v_hat"], rows[-1])
        np.testing.assert_allclose(res["v_hat"], normalized_loop(data, harness.draw_u0(cfg),
                                                                 cfg.eta_n / cfg.n), rtol=1e-12)

    def test_blocks_split_at_the_cap_move_no_bit(self):
        # d = 100, 520 replicates and v_hat: blocks of 512 and 9 rows against one
        # call over all 521 rows, through a chunk end
        cfg = tiny_config(n=300, d=100, replicates=520)
        res = harness.run_bootstrap_experiment(cfg)
        _, rows = one_call_rows(cfg)
        np.testing.assert_array_equal(res["v_hat"], rows[-1])
        np.testing.assert_array_equal(res["errors"],
                                      np.clip(1.0 - (rows[:-1] @ rows[-1]) ** 2, 0.0, 1.0))

    def test_memory_at_figure_d(self):
        # d = 100 and 300 replicates: 100-step chunks hold (301, 100) multipliers and
        # (100, 100) data rows, where 256-step chunks would peak above 2 MiB
        harness.run_bootstrap_experiment(tiny_config())  # first use imports numpy.random
        cfg = tiny_config(n=300, d=100, replicates=300)
        assert traced_peak_bytes(lambda: harness.run_bootstrap_experiment(cfg)) < 2 * 2**20

    def test_streams_live_one_block_at_a_time(self):
        # 6,000 replicates in 12 blocks: a stream per replicate held at once would
        # peak near 8 MiB
        harness.run_bootstrap_experiment(tiny_config())  # first use imports numpy.random
        cfg = tiny_config(n=40, d=5, replicates=6000)
        assert traced_peak_bytes(lambda: harness.run_bootstrap_experiment(cfg)) < 2 * 2**20

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

    def test_cdf_grid_and_quantiles(self):
        # 1000 rows t_j = j t_max / 1000 up to the (1 - 1e-9) quantile, F read off the law
        res = harness.run_reference(tiny_config())
        t, f = res["t"], res["F"]
        assert t.size == f.size == 1000
        np.testing.assert_allclose(np.diff(t), t[0], rtol=1e-12)
        assert res["weights"].cdf(t[-1]) == f[-1] == pytest.approx(1.0 - 1e-9, rel=0, abs=1e-12)
        np.testing.assert_array_equal(f, res["weights"].cdf(t))
        q = res["quantiles"]
        assert list(q) == ["q0.9", "q0.95", "q0.99"]
        assert q["q0.9"] < q["q0.95"] < q["q0.99"] < t[-1]
        np.testing.assert_allclose(res["weights"].cdf(list(q.values())), [0.9, 0.95, 0.99],
                                   rtol=0, atol=1e-12)

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
        np.testing.assert_array_equal(a["F"], b["F"])
        assert a["quantiles"] == b["quantiles"]


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
            pairs, den = orig(*args, **kwargs)
            return [(a, None if b is None else -b) for a, b in pairs], den

        monkeypatch.setattr(hoeffding, "factor_pairs", flipped)
        by_name = {c["name"]: c for c in harness.verify(tiny_config(d=6))["checks"]}
        assert not by_name["hoeffding_exactness"]["passed"]
        assert not by_name["bootstrap_hoeffding_exactness"]["passed"]
        assert by_name["orthogonality"]["passed"]

    def test_orthogonality_fails_on_uncentred_increments(self, monkeypatch):
        # sigma 2^-10 too large leaves E B_i = -2^-10 a sigma, far above the bound;
        # evaluated exactly, no roundoff floor can hide it
        sigma = model.DiscreteSpec.sigma
        monkeypatch.setattr(model.DiscreteSpec, "sigma",
                            property(lambda spec: sigma.fget(spec) * (1 + 2**-10)))
        by_name = {c["name"]: c for c in harness.verify(tiny_config(d=6))["checks"]}
        assert not by_name["orthogonality"]["passed"]
        assert by_name["orthogonality"]["value"] > 1e-6
        assert by_name["hoeffding_exactness"]["passed"]

    def test_draws_no_reference_chisq_sample(self, monkeypatch):
        # the chi-square checks read the exact CDF of the reference weights, and the
        # exact moment matrix draws nothing
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
        assert ("verify", "moments") not in paths
        assert ("verify", "anticoncentration") not in paths
        by_name = {c["name"]: c for c in checks}
        # the unit-scaled law of the same weights as run_reference's
        unit = harness.run_reference(cfg)["weights"].unit()
        assert by_name["anticoncentration"]["value"] == reference.max_window_prob(unit, 0.01)
        assert by_name["chisq_moments"] == harness._check_chisq_moments(unit)

    def test_chisq_checks_read_the_exact_law(self):
        check = harness._check_chisq_moments(reference.WeightedChiSq([1.0]))
        assert check["passed"] and check["bound"] == {"mean_rel_err": 1e-6,
                                                      "second_moment_rel_err": 1e-6}
        assert max(check["value"].values()) <= 1e-9
        # one weight: the top window is at 0, erf(sqrt(h/2)), below sqrt(4h/pi)
        check = harness._check_anticoncentration(reference.WeightedChiSq([1.0]))
        assert check["value"] == pytest.approx(math.erf(math.sqrt(0.005)), rel=0, abs=1e-10)
        assert check["bound"] == math.sqrt(0.04 / math.pi) and check["passed"]

    def test_chisq_moments_fail_when_the_cdf_is_off(self, monkeypatch):
        # the CDF reads weights 1% too large; the moment identities use the true ones
        cdf = reference.WeightedChiSq.cdf
        monkeypatch.setattr(reference.WeightedChiSq, "cdf", lambda law, x: cdf(
            reference.WeightedChiSq(1.01 * law.weights), x))
        report = harness.verify(tiny_config(d=6))
        by_name = {c["name"]: c for c in report["checks"]}
        assert not by_name["chisq_moments"]["passed"] and not report["passed"]
        assert min(by_name["chisq_moments"]["value"].values()) > 5e-3
        assert by_name["anticoncentration"]["passed"]

    def test_anticoncentration_fails_below_the_exact_value(self, monkeypatch):
        unit = harness._reference_law(tiny_config(d=6))[1].unit()
        value = reference.max_window_prob(unit, 0.01)
        monkeypatch.setattr(reference, "window_bound", lambda h: 0.5 * value)
        check = harness._check_anticoncentration(unit)
        assert check["value"] == value and check["bound"] == 0.5 * value
        assert not check["passed"]

    def test_hoeffding_exactness_survives_cancellation(self):
        # Default config, seed 5: the n=6, d=3, eta=log 6 case sums subset terms
        # of total norm ~6e7 to a product of norm ~15, and float64 evaluation
        # missed the 1e-10 bound (1.9e-10).
        checks = harness._check_hoeffding(harness.ExperimentConfig(master_seed=5))
        assert [c["name"] for c in checks] == ["hoeffding_exactness",
                                               "bootstrap_hoeffding_exactness"]
        for check in checks:
            assert check["bound"] == 1e-10
            assert check["passed"], check["value"]

    def test_hoeffding_exactness_forms_its_ratio_in_range(self):
        # the products pass 1e308 from scale ~1e25; evaluated exactly, both
        # identities still hold, and their ratios are formed in range
        for scale in (1e30, 1e70):
            checks = harness._check_hoeffding(harness.ExperimentConfig(scale=scale))
            assert [(c["value"], c["passed"]) for c in checks] == [(0.0, True)] * 2

    def test_hoeffding_exactness_across_denominators(self):
        # at c = 30 sigma has finer bits than the data of four of the eight cases
        # (case 2 among them), so the plain sum's common denominator exceeds the
        # direct product's; the identity still holds
        cfg = harness.ExperimentConfig(c=30.0)
        mdl = cfg.spectral_model(3)
        data = model.sample_x(mdl, cfg.stream("verify", "hoeffding", 2), 4)
        den_t = hoeffding.hoeffding_sum(data, 1.0, sigma=mdl.sigma)[-1]
        assert den_t != hoeffding.direct_product(data, 1.0)[-1]
        checks = harness._check_hoeffding(cfg)
        assert [(c["value"], c["passed"]) for c in checks] == [(0.0, True)] * 2

    def test_hoeffding_exactness_ratio_is_the_fraction_ratio(self, monkeypatch):
        # with a sign error on every term after T_0, each check's value is the
        # largest ratio formed from the same values as Fractions, correctly rounded
        from fractions import Fraction

        def fractions(m, den):
            return np.array([Fraction(v, den) for v in m.flat], dtype=object)

        orig = hoeffding.hoeffding_term
        monkeypatch.setattr(hoeffding, "hoeffding_term",
                            lambda pairs, s: -orig(pairs, s) if s else orig(pairs, s))
        cfg = tiny_config()
        worst = {"sigma": 0.0, "weights": 0.0}
        case = 0
        for n in (4, 6):
            for d in (2, 3):
                mdl = cfg.spectral_model(d)
                for eta in (1.0, float(np.log(n))):
                    st = cfg.stream("verify", "hoeffding", case)
                    data = model.sample_x(mdl, st, n)
                    w = np.concatenate([[0.0], st.normal(0.0, 0.5, n - 1)])
                    for key, args in (("sigma", {"sigma": mdl.sigma}), ("weights", {"weights": w})):
                        total, _, den_t = hoeffding.hoeffding_sum(data, eta, **args)
                        t = fractions(total, den_t)
                        dd = fractions(*hoeffding.direct_product(data, eta, args.get("weights")))
                        worst[key] = max(worst[key], math.sqrt(
                            np.sum((t - dd) ** 2) / max(1, np.sum(dd ** 2))))
                    case += 1
        checks = harness._check_hoeffding(cfg)
        assert [c["value"] for c in checks] == [worst["sigma"], worst["weights"]]
        assert min(worst.values()) > 1e-10


class TestWriters:
    def test_cdf_csv_chunks_join_to_the_whole_text(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_CSV_ROWS", 3)
        cdf = stats.ecdf(np.arange(7.0)[::-1] / 8)
        harness.write_cdf_csv(tmp_path / "c.csv", cdf)
        assert (tmp_path / "c.csv").read_text() == "".join(
            ["t,F\n", *(f"{i / 8!r},{(i + 1) / 7!r}\n" for i in range(7))])
        harness.write_pooled_csv(tmp_path / "p.csv", [("a", cdf), ("b", stats.ecdf([0.5]))])
        assert (tmp_path / "p.csv").read_text() == "".join(
            ["curve,t,F\n", *(f"a,{i / 8!r},{(i + 1) / 7!r}\n" for i in range(7)),
             "b,0.5,1.0\n"])

    def test_cdf_csv_never_holds_the_whole_text(self, tmp_path):
        # 1e5 rows are about 2.7 MB of text; one chunk of 4096 rows about 0.1 MB
        cdf = stats.ecdf(randgen.derive_stream(3, ("csv",)).uniform01(10**5))
        peak = traced_peak_bytes(lambda: harness.write_cdf_csv(tmp_path / "c.csv", cdf))
        assert (tmp_path / "c.csv").stat().st_size > 2 * 10**6
        assert peak < 2**20

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
        with pytest.raises(TypeError):
            harness.write_summary_json(tmp_path / "s.json", tiny_config(), extra=1)

    def test_svg_thinning(self):
        big = stats.ecdf(np.linspace(0.0, 1.0, 50000))
        svg = harness.render_cdf_svg([("big", big)])
        assert svg.count(",") < 3 * harness._SVG_MAX_JUMPS + 100
        ET.fromstring(svg)

    def test_svg_degenerate_range(self):
        svg = harness.render_cdf_svg([("flat", stats.ecdf([0.5, 0.5]))])
        ET.fromstring(svg)
