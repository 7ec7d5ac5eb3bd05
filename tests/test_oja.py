"""Oja iteration contracts: normalization, the update rule, the kernel's two modes,
and sin^2."""

import numpy as np
import pytest

from ojaboot import hoeffding, model, oja, randgen


def zero_row(data, eta, u0):
    """Plain Oja over data at step size eta as the bootstrap computes v_hat: one row of
    zero multipliers, normalized at the end."""
    data = np.asarray(data, dtype=float)
    mult = np.zeros((1, data.shape[0]))
    return oja.unit_rows(oja.advance(oja.start(u0, 1), data, eta, mult))[0]


class TestInit:
    def test_normalizes(self):
        np.testing.assert_allclose(oja.normalize([3.0, 4.0]), [0.6, 0.8])

    def test_unit_vector_unchanged(self):
        np.testing.assert_allclose(oja.normalize([1.0, 0.0]), [1.0, 0.0])

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            oja.normalize([0.0, 0.0])
        with pytest.raises(ValueError):
            oja.start([0.0, 0.0], 1)

    def test_u0_from_stream_reproducible(self):
        g1 = randgen.RngStream(11, ("u0",)).normal(0.0, 1.0, 6)
        g2 = randgen.RngStream(11, ("u0",)).normal(0.0, 1.0, 6)
        np.testing.assert_array_equal(oja.normalize(g1), oja.normalize(g2))


class TestStep:
    # one-sample passes at step size 0.5
    def test_aligned_sample_keeps_direction(self):
        w = zero_row([[1.0, 0.0]], 0.5, [1.0, 0.0])
        np.testing.assert_allclose(w, [1.0, 0.0])

    def test_orthogonal_sample_is_noop(self):
        w = zero_row([[0.0, 1.0]], 0.5, [1.0, 0.0])
        np.testing.assert_allclose(w, [1.0, 0.0])

    def test_hand_evaluated_update(self):
        # eta = 0.5, w = e1, x = (1,1): unnormalized (1.5, 0.5)
        w = zero_row([[1.0, 1.0]], 0.5, [1.0, 0.0])
        expected = np.array([1.5, 0.5]) / np.sqrt(2.5)
        np.testing.assert_allclose(w, expected, atol=1e-15)
        np.testing.assert_allclose(w, [0.9487, 0.3162], atol=5e-5)

    def test_unit_norm_invariant(self):
        # every prefix of a 100-step pass at eta = 0.03
        rng = np.random.default_rng(2)
        u0 = rng.standard_normal(5)
        data = rng.standard_normal((100, 5))
        for k in range(1, 101):
            w = zero_row(data[:k], 0.03, u0)
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-12


class TestRun:
    def test_empty_run_returns_normalized_u0(self):
        w = zero_row(np.zeros((0, 3)), 1.0, [2.0, 0.0, 0.0])
        np.testing.assert_allclose(w, [1.0, 0.0, 0.0])

    def test_matches_matrix_product_small(self, rounded):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((3, 3))
        u0 = rng.standard_normal(3)
        w = zero_row(data, 1.7 / 3, u0)
        b = rounded(*hoeffding.direct_product(data, eta_n=1.7))
        ref = b @ (u0 / np.linalg.norm(u0))
        ref /= np.linalg.norm(ref)
        assert abs(w @ ref) >= 1.0 - 1e-10

    def test_matches_matrix_product_longer(self, rounded):
        # power-of-two rescaling only rescales: same direction as the raw product
        rng = np.random.default_rng(5)
        data = rng.standard_normal((50, 4))
        u0 = rng.standard_normal(4)
        w = zero_row(data, 2.0 / 50, u0)
        b = rounded(*hoeffding.direct_product(data, eta_n=2.0))
        ref = b @ u0
        ref /= np.linalg.norm(ref)
        assert abs(w @ ref) >= 1.0 - 1e-9

    def test_repeated_direction_power_iteration(self):
        d, n, eta_n = 4, 60, 30.0
        u0 = np.array([0.5, 0.6, -0.4, 0.2])
        data = np.tile(np.eye(d)[0], (n, 1))
        w = zero_row(data, eta_n / n, u0)
        eta = eta_n / n
        tan2_0 = (np.sum(u0**2) - u0[0] ** 2) / u0[0] ** 2
        bound = tan2_0 * (1.0 + eta) ** (-2 * n)
        assert oja.sin2(w, np.eye(d)[0]) <= bound + 1e-15


def normalized_loop(w, x, eta, mult=None, prev=None):
    """The update one row and one step at a time, divided by the norm after every
    step: the reference for advance's power-of-two rescaling."""
    rows = []
    for i, v in enumerate(np.array(w, dtype=float)):
        p = prev
        for t in range(x.shape[-2]):
            xt = x[i, t] if x.ndim == 3 else x[t]
            h = v @ xt
            if mult is None or p is None:
                v = v + eta * h * xt
            else:
                v = v + eta * ((1.0 + mult[i, t]) * h * xt - mult[i, t] * (v @ p) * p)
            v = v / np.linalg.norm(v)
            p = xt
        rows.append(v)
    return np.array(rows)


class TestAdvance:
    def test_rows_repeat_run_on_their_own_samples(self):
        # each row of the block is the one-row call on that row's coordinates
        rng = np.random.default_rng(9)
        data = rng.standard_normal((6, 50, 4))
        u0 = rng.standard_normal(4)
        w = oja.unit_rows(oja.advance(oja.start(u0, 6), data, 2.0 / 50, root=np.eye(4)))
        for row, x in zip(w, data):
            alone = oja.advance(oja.start(u0, 1), x[None], 2.0 / 50, root=np.eye(4))
            np.testing.assert_array_equal(row, oja.unit_rows(alone)[0])

    @pytest.mark.parametrize("with_multipliers", [False, True])
    def test_chunk_boundaries_are_invisible(self, with_multipliers):
        # 131 samples in chunks of 7 (the last one short) against one chunk
        rng = np.random.default_rng(10)
        data = rng.standard_normal((131, 3))
        mult = rng.standard_normal((5, 131)) if with_multipliers else np.zeros((5, 131))
        block = oja.start(rng.standard_normal(3), 5)
        whole = oja.advance(block, data, 0.02, mult)
        for lo in range(0, 131, 7):
            hi = min(lo + 7, 131)
            block = oja.advance(block, data[lo:hi], 0.02,
                                mult[:, lo:hi],
                                data[lo - 1] if lo else None)
        np.testing.assert_array_equal(block, whole)

    @pytest.mark.parametrize("case", ["shared", "per_row", "multipliers"])
    def test_large_steps_stay_finite(self, case):
        # eta ||x_t||^2 from 1e3 to 1e9: 50 unnormalized steps would grow a row by
        # more than 2^1024, so advance must rescale inside the call
        rng = np.random.default_rng(11)
        m, steps, d, eta = 3, 50, 4, 1e-2
        shape = (m, steps, d) if case == "per_row" else (steps, d)
        x = rng.standard_normal(shape)
        gain = 10.0 ** rng.uniform(3.0, 9.0, shape[:-1])
        x *= np.sqrt(gain / (eta * np.einsum("...d,...d->...", x, x)))[..., None]
        mult = rng.normal(0.0, 0.7, (m, steps)) if case == "multipliers" else None
        if case == "shared":  # plain Oja on rows of zero multipliers, as v_hat steps
            mult = np.zeros((m, steps))
        block = oja.start(rng.standard_normal(d), m)
        w = oja.advance(block, x, eta, mult, root=np.eye(d) if case == "per_row" else None)
        assert np.all(np.isfinite(w))
        np.testing.assert_allclose(oja.unit_rows(w), normalized_loop(block, x, eta, mult),
                                   rtol=1e-12)

    def test_coordinates_step_on_their_product_by_root(self):
        # eta ||z_t @ root||^2 near 1e7: 60 unnormalized steps would grow a row by more
        # than 2^1024, so the bound from the root's row sums must rescale inside the call
        rng = np.random.default_rng(12)
        m, steps, d, eta = 5, 60, 4, 1.0
        a = 30.0 * rng.standard_normal((d, d))
        root = a @ a.T
        z = rng.standard_normal((m, steps, d))
        block = oja.start(rng.standard_normal(d), m)
        w = oja.advance(block, z, eta, root=root)
        assert np.all(np.isfinite(w))
        np.testing.assert_allclose(oja.unit_rows(w), normalized_loop(block, z @ root, eta),
                                   rtol=1e-12)
        with pytest.raises(ValueError):
            oja.advance(block, z, eta, root=root[:3])
        with pytest.raises(ValueError, match="root"):
            oja.advance(block, z[0], eta, root=root)

    def test_coordinates_step_bit_for_bit(self):
        # norms in [1/2, 1) before and after, and a step too small to leave the window:
        # no rescale, so each step is the one-line formula on the slab, every bit of it
        rng = np.random.default_rng(4)
        m, steps, d, eta = 7, 40, 20, 1e-3
        root = rng.standard_normal((d, d)) / d
        z = rng.standard_normal((m, steps, d))
        block = 0.75 * oja.start(rng.standard_normal(d), m)
        w = block.copy()
        for t in range(steps):
            xt = z[:, t] @ root
            xt *= eta * (w[:, None, :] @ xt[:, :, None])[:, 0]
            w += xt
        norms = np.linalg.norm(w, axis=1)
        assert np.all((norms >= 0.5) & (norms < 1.0)) and not np.array_equal(w, block)
        np.testing.assert_array_equal(oja.advance(block, z, eta, root=root), w)

    def test_shrinking_multipliers_stay_finite(self):
        # W = -50 on samples alternating between e1 and e2 scales a row by 0.1 and then
        # 1.918 along each axis: 2.4 bits lost per two steps, 720 bits over the call,
        # so advance must rescale inside the call
        eta, steps = 0.9 / 49, 600
        x = np.tile(np.eye(2), (steps // 2, 1))
        mult = np.full((2, steps), -50.0)
        block = np.array([[0.6, 0.8], [-0.28, 0.96]])
        w = oja.advance(block, x, eta, mult)
        assert np.all(np.isfinite(w))
        np.testing.assert_allclose(oja.unit_rows(w), normalized_loop(block, x, eta, mult),
                                   rtol=1e-12)

    def test_shape_errors(self):
        block = oja.start([1.0, 0.0], 3)
        with pytest.raises(ValueError, match="do not fit"):
            oja.advance(np.zeros((0, 2)), np.ones((4, 2)), 0.1)
        with pytest.raises(ValueError, match="do not fit"):
            oja.advance(block, np.ones((4, 3)), 0.1)
        with pytest.raises(ValueError, match="do not fit"):
            oja.advance(block, np.ones((2, 4, 2)), 0.1)
        with pytest.raises(ValueError, match="multipliers"):
            oja.advance(block, np.ones((4, 2)), 0.1, mult=np.zeros((3, 5)))
        with pytest.raises(ValueError, match="shared"):
            oja.advance(block, np.ones((3, 4, 2)), 0.1, mult=np.zeros((3, 4)))
        with pytest.raises(ValueError, match="root"):
            oja.advance(block, np.ones((3, 4, 2)), 0.1)
        with pytest.raises(ValueError, match="shared samples need multipliers"):
            oja.advance(block, np.ones((4, 2)), 0.1)

    def test_unit_rows_rejects_rows_that_left_the_finite_range(self):
        np.testing.assert_array_equal(oja.unit_rows([[0.0, 0.5], [3.0, 4.0]]),
                                      [[0.0, 1.0], [0.6, 0.8]])
        for bad in ([0.0, 0.0], [np.inf, 1.0], [np.nan, 1.0]):
            with pytest.raises(ValueError, match="row 1 .* finite range"):
                oja.unit_rows([[1.0, 0.0], bad])


class TestSin2:
    def test_identical(self):
        assert oja.sin2([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_orthogonal(self):
        assert oja.sin2([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_45_degrees(self):
        assert oja.sin2([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.5)

    def test_sign_invariance_exact(self):
        u = np.array([0.3, -0.7, 0.2])
        v = np.array([1.0, 0.4, -0.9])
        s = oja.sin2(u, v)
        assert oja.sin2(-u, v) == s
        assert oja.sin2(u, -v) == s

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            u, v = rng.standard_normal(4), rng.standard_normal(4)
            assert abs(oja.sin2(3.7 * u, v) - oja.sin2(u, v)) <= 1e-14
            assert abs(oja.sin2(u, 0.04 * v) - oja.sin2(u, v)) <= 1e-14

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            u, v = rng.standard_normal(6), rng.standard_normal(6)
            s = oja.sin2(u, v)
            assert 0.0 <= s <= 1.0
            assert s == pytest.approx(oja.sin2(v, u), abs=1e-15)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            oja.sin2([0.0, 0.0], [1.0, 0.0])


class TestErrorScaling:
    def test_mean_sin2_decreases_with_n(self):
        # quadrupling n should at least halve the mean error (rate eta_n / n)
        spec = model.KernelSpec(d=10, c=0.01, beta=1.0, scale=5.0)
        m = model.spectral_decompose(spec)
        u0 = randgen.RngStream(21, ("u0",)).normal(0.0, 1.0, 10)
        means = {}
        for n in (500, 2000):
            # each trial's coordinates, the uniform draws sample_x would make
            z = np.stack([randgen.RngStream(21, ("trial", n, trial)).uniform_sym((n, 10))
                          for trial in range(200)])
            w = oja.unit_rows(oja.advance(oja.start(u0, 200), z, np.log(n) / n,
                                          root=m.sqrt_sigma))
            means[n] = np.mean([oja.sin2(row, m.v1) for row in w])
        assert means[500] / means[2000] >= 2.0
