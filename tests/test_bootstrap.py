"""Multiplier-bootstrap replicate semantics (the multiplier update of oja.advance and
the multiplier draws) and the closed-form covariance."""

import types

import numpy as np
import pytest

from ojaboot import bootstrap, hoeffding, linalg, model, oja, randgen


def explicit_law(sigma):
    """A law given only by its covariance, symmetrized as the package's specs are."""
    return types.SimpleNamespace(sigma=linalg.sym(sigma))


def scalar_update(v, x_t, prev_x, eta, w):
    """One replicate's unnormalized update, written out as the module docstring states it."""
    h = (v @ x_t) * x_t
    g = (v @ prev_x) * prev_x
    return v + eta * (h + w * (h - g))


def replicate_errors(data, u0, m, eta_n, streams):
    """(v_hat, sin^2 of each replicate against v_hat) from one shared pass, v_hat
    being one more row, of zero multipliers."""
    n = data.shape[0]
    rows = oja.unit_rows(oja.advance(oja.start(u0, m + 1), data, eta_n / n,
                                     bootstrap.draw_multipliers(streams, 0, n, m + 1)))
    reps, v_hat = rows[:-1], rows[-1]
    return v_hat, np.clip(1.0 - (reps @ v_hat) ** 2, 0.0, 1.0)


def plain_pass(data, eta, u0):
    """Plain Oja over the rows of data at step size eta, through advance's other mode:
    per-row coordinates with the identity root."""
    data = np.asarray(data, dtype=float)
    w = oja.advance(oja.start(u0, 1), data[None], eta, root=np.eye(data.shape[1]))
    return oja.unit_rows(w)[0]


def small_model(d=4, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((d, d))
    return model.spectral_decompose(explicit_law(raw @ raw.T + np.diag([3.0] + [0.5] * (d - 1))))


class TestEnsembleInit:
    # a replicate block starts as copies of the normalized u0 (oja.start)
    def test_copies_of_u0(self):
        block = oja.start([1.0, 0.0], 3)
        assert block.shape == (3, 2)
        np.testing.assert_array_equal(block, np.tile([1.0, 0.0], (3, 1)))

    def test_single_replicate(self):
        np.testing.assert_allclose(oja.start([3.0, 4.0], 1)[0], [0.6, 0.8])

    def test_value_semantics_between_steps(self):
        block = oja.start([1.0, 0.0], 2)
        stepped = oja.advance(block, [[0.5, 0.5]], 0.2, mult=np.zeros((2, 1)))
        stepped[0, 0] = 99.0
        assert block[0, 0] == 1.0
        assert not np.shares_memory(stepped, block)

    def test_rejects_m0(self):
        with pytest.raises(ValueError):
            oja.start([1.0, 0.0], 0)
        with pytest.raises(ValueError):
            oja.advance(np.zeros((0, 2)), [[1.0, 0.0]], 0.2, mult=np.zeros((0, 1)))


class TestEnsembleStep:
    # the multiplier update of oja.advance on shared data
    def test_first_step_is_plain_oja_and_draws_nothing(self):
        u0 = np.array([1.0, 0.0])
        # no previous sample: x_1 stands in for it, so any first multiplier meets a
        # zero increment
        block = oja.unit_rows(oja.advance(oja.start(u0, 2), [[1.0, 1.0]], 0.5,
                                          mult=np.array([[3.7], [-1.2]])))
        w = plain_pass([[1.0, 1.0]], 0.5, u0)
        for row in block:
            np.testing.assert_allclose(row, w, atol=1e-15)
        # and the stream's first draw belongs to the second step
        mult = bootstrap.draw_multipliers([randgen.RngStream(3, ("w", 0))], 0, 3, 1)
        assert mult[0, 0] == 0.0
        np.testing.assert_array_equal(
            mult[0, 1:], randgen.RngStream(3, ("w", 0)).normal(0.0, 0.5, 2))

    def test_zero_multiplier_reduces_to_oja(self):
        rng = np.random.default_rng(1)
        u0 = rng.standard_normal(3)
        data = rng.standard_normal((4, 3))
        block = oja.unit_rows(oja.advance(oja.start(u0, 3), data, 2.0 / 4, mult=np.zeros((3, 4))))
        w = plain_pass(data, 2.0 / 4, u0)
        for row in block:
            np.testing.assert_allclose(row, w, atol=1e-14)

    def test_repeated_sample_is_oja_step_for_any_w(self):
        rng = np.random.default_rng(2)
        u0 = rng.standard_normal(3)
        x = rng.standard_normal(3)
        mult = np.array([[3.7, 3.7], [-1.2, -1.2]])
        block = oja.unit_rows(oja.advance(oja.start(u0, 2), [x, x], 1.5 / 3, mult=mult))
        # two plain steps at eta = 1.5 / 3
        w = plain_pass([x, x], 1.5 / 3, u0)
        for row in block:
            np.testing.assert_allclose(row, w, atol=1e-14)

    def test_unit_norm_invariant(self):
        # rows come back with norms in [1/2, 1), and in the direction of the
        # per-step-normalized scalar update
        rng = np.random.default_rng(3)
        block = oja.start(rng.standard_normal(4), 5)
        ref = block.copy()
        streams = [randgen.RngStream(0, ("w", i)) for i in range(5)]
        prev = None
        for t in range(20):
            x = rng.standard_normal(4)
            mult = bootstrap.draw_multipliers(streams, t, t + 1, len(streams))
            block = oja.advance(block, [x], 3.0 / 20, mult, prev)
            for i, w in enumerate(mult[:, 0]):
                step = scalar_update(ref[i], x, x if prev is None else prev, 3.0 / 20,
                                     0.0 if prev is None else w)
                ref[i] = oja.normalize(step)
            prev = x
            norms = np.linalg.norm(block, axis=1)
            assert np.all((norms >= 0.5) & (norms < 1.0)), norms
            np.testing.assert_allclose(oja.unit_rows(block), ref, rtol=0.0, atol=1e-12)

    def test_one_dimensional_sphere(self):
        block = oja.start([2.0], 3)
        streams = [randgen.RngStream(1, ("w", i)) for i in range(3)]
        prev = None
        for t, x in enumerate(([1.3], [-0.4], [0.9], [2.0])):
            block = oja.advance(block, [x], 1.0 / 4,
                                bootstrap.draw_multipliers(streams, t, t + 1, len(streams)), prev)
            prev = np.array(x)
            np.testing.assert_allclose(np.abs(oja.unit_rows(block)[:, 0]), 1.0, atol=1e-12)

    def test_matches_scalar_update(self):
        rng = np.random.default_rng(4)
        u0 = rng.standard_normal(3)
        x0, x1 = rng.standard_normal(3), rng.standard_normal(3)
        ws = [0.8, -0.3]
        mult = np.array([[3.7, ws[0]], [-1.2, ws[1]]])
        block = oja.unit_rows(oja.advance(oja.start(u0, 2), [x0, x1], 0.6, mult=mult))
        v_prev = oja.normalize(oja.normalize(u0) + 0.6 * (oja.normalize(u0) @ x0) * x0)
        for i, w in enumerate(ws):
            ref = oja.normalize(scalar_update(v_prev, x1, x0, 0.6, w))
            np.testing.assert_allclose(block[i], ref, rtol=1e-14, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            oja.advance(oja.start([1.0, 0.0], 1), [[1.0, 0.0, 0.0]], 0.5, mult=np.zeros((1, 1)))

    def test_chunked_draws_equal_scalar_draws(self):
        streams = [randgen.RngStream(5, ("w", i)) for i in range(3)]
        chunks = np.hstack([bootstrap.draw_multipliers(streams, lo, hi, len(streams))
                            for lo, hi in ((0, 5), (5, 9), (9, 12))])
        for i, row in enumerate(chunks):
            s = randgen.RngStream(5, ("w", i))
            scalar = [0.0] + [s.normal(0.0, 0.5) for _ in range(11)]
            np.testing.assert_array_equal(row, scalar)

    def test_rows_after_the_streams_are_zero(self):
        streams = lambda: [randgen.RngStream(6, ("w", i)) for i in range(2)]
        mult = bootstrap.draw_multipliers(streams(), 256, 300, rows=4)
        assert mult.shape == (4, 44) and not mult[2:].any()
        np.testing.assert_array_equal(mult[:2], bootstrap.draw_multipliers(streams(), 256, 300, 2))

    def test_draws_equal_per_stream_draws_bitwise(self):
        # each row is drawn in place; the values are those of one draw of
        # stop - start values (one fewer at step 0) from the replicate's stream
        for start, stop in ((0, 256), (256, 300)):
            mult = bootstrap.draw_multipliers(
                [randgen.RngStream(6, ("w", i)) for i in range(4)], start, stop, 4)
            first = 1 if start == 0 else 0
            for i, row in enumerate(mult):
                old = randgen.RngStream(6, ("w", i)).normal(
                    0.0, bootstrap.W_VARIANCE, stop - start - first)
                assert row[first:].tobytes() == old.tobytes()
            assert not mult[:, :first].any()


class TestConditionalMoments:
    def test_antithetic_mean_preservation(self):
        # the multiplier part is odd in W, so (+W, -W) increments average to the
        # Oja increment; float error is at most an ulp or two per component
        rng = np.random.default_rng(5)
        v = oja.normalize(rng.standard_normal(4))
        x, p = rng.standard_normal(4), rng.standard_normal(4)
        eta = 0.37
        oja_inc = v + eta * (v @ x) * x
        for w in (0.5, 1.9, 0.01234):
            plus = scalar_update(v, x, p, eta, w)
            minus = scalar_update(v, x, p, eta, -w)
            np.testing.assert_allclose((plus + minus) / 2.0, oja_inc, rtol=1e-15, atol=1e-16)

    def test_conditional_variance(self):
        rng = np.random.default_rng(6)
        v = oja.normalize(rng.standard_normal(3))
        x, p = rng.standard_normal(3), rng.standard_normal(3)
        eta = 0.4
        diff = (v @ x) * x - (v @ p) * p
        target = eta**2 * 0.5 * np.outer(diff, diff)
        w = randgen.RngStream(77, ("condvar",)).normal(0.0, 0.5, 10**5)
        incs = eta * w[:, None] * diff[None, :]  # increment minus its W-mean part
        devs = incs - incs.mean(axis=0)
        emp = devs.T @ devs / w.size
        prods = devs[:, :, None] * devs[:, None, :]
        se = prods.std(axis=0) / np.sqrt(w.size)
        assert np.all(np.abs(emp - target) <= 5 * np.maximum(se, 1e-12))


class TestRunBootstrap:
    def test_constant_data_gives_zero_errors(self):
        data = np.tile(np.array([1.7, 0.0, 0.0]), (30, 1))
        streams = [randgen.RngStream(9, ("w", i)) for i in range(2)]
        _, errors = replicate_errors(data, [0.6, 0.6, 0.5], 2, np.log(30), streams)
        assert np.all(errors <= 1e-12)

    def test_errors_in_unit_interval(self):
        rng = np.random.default_rng(10)
        data = rng.standard_normal((50, 4))
        streams = [randgen.RngStream(10, ("w", i)) for i in range(8)]
        _, errors = replicate_errors(data, rng.standard_normal(4), 8, np.log(50), streams)
        assert errors.shape == (8,)
        assert np.all(errors >= 0.0) and np.all(errors <= 1.0)

    def test_seed_stability(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((25, 3))
        u0 = rng.standard_normal(3)
        runs = []
        for _ in range(2):
            streams = [randgen.RngStream(123, ("w", i)) for i in range(5)]
            runs.append(replicate_errors(data, u0, 5, np.log(25), streams))
        np.testing.assert_array_equal(runs[0][1], runs[1][1])
        np.testing.assert_array_equal(runs[0][0], runs[1][0])

    def test_replicate_path_is_the_factor_product(self, rounded):
        # prescribed W sequence: replicate equals the ordered-factor product on u0
        rng = np.random.default_rng(12)
        n, d = 6, 3
        data = rng.standard_normal((n, d))
        wseq = rng.standard_normal(n)
        u0 = oja.normalize(rng.standard_normal(d))
        eta_n = 1.4
        # the first column meets a zero increment: x_1 stands in for its predecessor
        rep = oja.unit_rows(oja.advance(oja.start(u0, 1), data, eta_n / n, mult=wseq[None, :]))
        weights = np.concatenate([[0.0], wseq[1:]])
        b = rounded(*hoeffding.direct_product(data, eta_n, weights=weights))
        ref = oja.normalize(b @ u0)
        assert abs(rep[0] @ ref) >= 1.0 - 1e-10


class TestBootstrapCovariance:
    def test_constant_data_zero(self):
        m = small_model()
        data = np.tile(np.array([1.0, 0.5, -0.2, 0.3]), (10, 1))
        np.testing.assert_allclose(
            bootstrap.bootstrap_covariance(data, m, np.log(10)), np.zeros((4, 4)), atol=1e-18)

    def test_n2_hand_case(self):
        m = small_model(d=2, seed=3)
        data = np.array([[1.0, 0.4], [-0.3, 1.1]])
        eta_n = 0.9
        a = eta_n / 2
        lam, q = m.eig.eigenvalues, m.eig.eigenvectors
        d1 = ((1 + a * lam[1]) / (1 + a * lam[0])) * np.outer(q[:, 1], q[:, 1])
        delta = np.outer(data[1], data[1]) - np.outer(data[0], data[0])
        u = d1 @ delta @ m.v1
        expected = (eta_n / 4.0) * np.outer(u, u)
        np.testing.assert_allclose(
            bootstrap.bootstrap_covariance(data, m, eta_n), expected, atol=1e-14)

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(13)
        d, n = 4, 10
        m = small_model(d=d, seed=13)
        data = rng.standard_normal((n, d))
        eta_n = np.log(n)
        a = eta_n / n
        lam, q = m.eig.eigenvalues, m.eig.eigenvectors
        rows = []
        for i in range(2, n + 1):
            dmat = sum(((1 + a * lam[j]) / (1 + a * lam[0])) ** (i - 1) * np.outer(q[:, j], q[:, j])
                       for j in range(1, d))
            delta = np.outer(data[i - 1], data[i - 1]) - np.outer(data[i - 2], data[i - 2])
            rows.append(dmat @ delta @ m.v1)
        rows = np.stack(rows)
        w = randgen.RngStream(14, ("zmc",)).normal(0.0, 0.5, (10**5, n - 1))
        z = np.sqrt(eta_n / n) * (w @ rows)
        emp = z.T @ z / z.shape[0]
        prods = z[:, :, None] * z[:, None, :]
        se = prods.std(axis=0) / np.sqrt(z.shape[0])
        closed = bootstrap.bootstrap_covariance(data, m, eta_n)
        assert np.all(np.abs(emp - closed) <= 5 * np.maximum(se, 1e-15))

    def test_psd_and_annihilates_v1(self):
        rng = np.random.default_rng(15)
        m = small_model(d=5, seed=15)
        data = rng.standard_normal((40, 5))
        cov = bootstrap.bootstrap_covariance(data, m, np.log(40))
        vals = np.linalg.eigvalsh(cov)
        assert vals.min() >= -1e-10 * max(vals.max(), 1e-30)
        assert np.linalg.norm(cov @ m.v1) <= 1e-10

    def test_degenerate_gap_rejected(self):
        m = model.spectral_decompose(explicit_law(np.eye(3)))
        with pytest.raises(model.DegenerateGapError):
            bootstrap.bootstrap_covariance(np.ones((5, 3)), m, 1.0)
